package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E19 measures live fault tolerance: the frontend keeps serving while
// memory modules crash at runtime. A shared mpc.FaultSet is seeded with F
// random failed modules and the full client harness of E18 (same streams,
// same windowed async drivers) runs against it, for F swept from 0 through
// q/2 (where the paper's quorum argument guarantees every variable keeps a
// live majority) and beyond (where some variables provably lose their
// quorum and their requests must fail with the per-request quorum verdict
// while the rest of the stream commits).
//
// Reported per cell: throughput, the fraction of operations stranded, the
// bids the interconnect dropped at failed modules, the bids the protocol
// re-selected onto survivors, rounds per batch, and the round inflation
// against the same configuration's F=0 cell — the measured price of
// masking F failures. With Options.FaultSched == "churn", extra cells run
// a rolling single-module fail/recover schedule in the background, the
// regime where every quorum always exists but the fault set changes under
// the protocol's feet (mid-phase re-selection and retry passes, rather
// than static avoidance).
//
// When JSON output is requested the table is written to BENCH_PR5.json
// (the committed fault-tolerance curve).
func E19(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 16, 24000
	if o.Quick {
		n = 5
		clients, totalOps = 4, 3000
	}
	opsPer := totalOps / clients

	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	resolver, err := protocol.CompileMapper(inst.pp, protocol.CompileOptions{})
	if err != nil {
		return err
	}

	// The ladder spans both regimes: 0..q/2 (=1) and small constants, where
	// the algebraic spread guarantees masking (Theorem 2: F modules strand
	// at most (F choose 2) variables, so a random stream almost never hits
	// one), then module-count fractions where stranding and retry traffic
	// become measurable.
	N := int(inst.s.NumModules)
	faultCounts := []int{0, 1, 2, 8, N / 16, N / 8, N / 4}
	if o.Quick {
		faultCounts = []int{0, 1, N / 8}
	}
	if o.Faults > 0 {
		faultCounts = []int{0, o.Faults}
	}
	for _, f := range faultCounts {
		if uint64(f) >= inst.s.NumModules {
			return fmt.Errorf("e19: %d faults with only %d modules", f, inst.s.NumModules)
		}
	}
	switch o.FaultSched {
	case "", "churn":
	default:
		return fmt.Errorf("e19: unknown fault schedule %q (want \"churn\")", o.FaultSched)
	}

	workloads := []struct {
		name   string
		stream func(rng *rand.Rand) []uint64
	}{
		{"uniform", func(rng *rand.Rand) []uint64 {
			return workload.HotSpot(rng, inst.s.NumVariables, opsPer, 16, 0)
		}},
		{"zipf", func(rng *rand.Rand) []uint64 {
			return workload.Zipf(rng, inst.s.NumVariables, opsPer, 1.1)
		}},
		{"hot-spot", func(rng *rand.Rand) []uint64 {
			return workload.HotSpot(rng, inst.s.NumVariables, opsPer, 16, 0.85)
		}},
	}

	type row struct {
		Workload      string  `json:"workload"`
		Faults        string  `json:"faults"`
		FailedModules int     `json:"failed_modules"`
		NsPerOp       float64 `json:"ns_per_op"`
		OpsPerSec     float64 `json:"ops_per_sec"`
		StrandedOps   int64   `json:"stranded_ops"`
		StrandedReqs  int64   `json:"stranded_requests"`
		RetriedBids   int64   `json:"retried_bids"`
		DroppedBids   int64   `json:"dropped_bids"`
		RoundsPerBat  float64 `json:"rounds_per_batch"`
		RoundInflate  float64 `json:"round_inflation_vs_f0"`
	}
	report := struct {
		Experiment string   `json:"experiment"`
		Quick      bool     `json:"quick"`
		Degree     int      `json:"degree_n"`
		Modules    uint64   `json:"modules"`
		Vars       uint64   `json:"vars"`
		Quorum     int      `json:"quorum"`
		GoMaxProcs int      `json:"gomaxprocs"`
		Host       HostInfo `json:"host"`
		Clients    int      `json:"clients"`
		OpsPerRun  int      `json:"ops_per_run"`
		Rows       []row    `json:"rows"`
	}{
		Experiment: "e19-fault-tolerance",
		Quick:      o.Quick,
		Degree:     n,
		Modules:    inst.s.NumModules,
		Vars:       inst.s.NumVariables,
		Quorum:     inst.s.Majority,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       Host(),
		Clients:    clients,
		OpsPerRun:  totalOps,
	}

	fprintf(w, "E19 Fault tolerance: runtime module failures (q=2, n=%d, N=%d, M=%d, quorum=%d, %d clients, %d ops/run)\n",
		n, inst.s.NumModules, inst.s.NumVariables, inst.s.Majority, clients, totalOps)
	fprintf(w, "%-9s %7s %10s %12s %9s %9s %9s %9s %8s %9s\n",
		"workload", "faults", "ns/op", "ops/sec", "strandOp", "strandRq", "retried", "dropped", "rnd/bat", "inflate")

	// measure drives one cell: warm-up, then the median of reps timed runs.
	measure := func(streams [][]uint64, fs *mpc.FaultSet, churn bool) (row, error) {
		svc, err := shard.New(inst.pp, shard.Config{
			Observe: true,
			Protocol: o.instrument(protocol.Config{
				Resolver: resolver,
				NewMachine: func(mcfg mpc.Config) (protocol.Machine, error) {
					return mpc.NewFailingShared(mcfg, fs)
				},
			}),
		})
		if err != nil {
			return row{}, err
		}
		stopChurn := func() {}
		if churn {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := uint64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					fs.Fail(m)
					time.Sleep(100 * time.Microsecond)
					fs.Recover(m)
					m = (m + 13) % inst.s.NumModules
				}
			}()
			stopChurn = func() { close(stop); wg.Wait() }
		}
		if _, err := driveShardsFaulty(svc, streams, 4, o.Seed+19); err != nil {
			stopChurn()
			_ = svc.Close()
			return row{}, err
		}
		runtime.GC()
		reps := 3
		if o.Quick {
			reps = 2
		}
		elapsedNs := make([]int64, 0, reps)
		var strandedOps int64
		for r := 0; r < reps; r++ {
			start := time.Now()
			stranded, err := driveShardsFaulty(svc, streams, 1, o.Seed+19)
			if ferr := svc.Flush(); err == nil {
				err = ferr
			}
			if err != nil {
				stopChurn()
				_ = svc.Close()
				return row{}, err
			}
			elapsedNs = append(elapsedNs, time.Since(start).Nanoseconds())
			strandedOps += stranded
		}
		stopChurn()
		st := svc.Stats()
		snap := svc.Snapshot()
		if err := svc.Close(); err != nil {
			return row{}, err
		}
		sort.Slice(elapsedNs, func(i, j int) bool { return elapsedNs[i] < elapsedNs[j] })
		med := time.Duration(elapsedNs[len(elapsedNs)/2])
		ops := float64(totalOps)
		var dropped int64
		for k, v := range snap {
			if strings.HasSuffix(k, "_dropped_bids_total") {
				dropped += v
			}
		}
		r := row{
			NsPerOp:      float64(med.Nanoseconds()) / ops,
			OpsPerSec:    ops / med.Seconds(),
			StrandedOps:  strandedOps / int64(reps),
			StrandedReqs: st.Total.Stranded,
			RetriedBids:  st.Total.RetriedBids,
			DroppedBids:  dropped,
		}
		if st.Total.Batches > 0 {
			r.RoundsPerBat = float64(st.Total.TotalRounds) / float64(st.Total.Batches)
		}
		return r, nil
	}

	emit := func(r row) {
		fprintf(w, "%-9s %7s %10.1f %12.0f %9d %9d %9d %9d %8.2f %8.2fx\n",
			r.Workload, r.Faults, r.NsPerOp, r.OpsPerSec,
			r.StrandedOps, r.StrandedReqs, r.RetriedBids, r.DroppedBids,
			r.RoundsPerBat, r.RoundInflate)
		report.Rows = append(report.Rows, r)
	}

	for _, wl := range workloads {
		streams := make([][]uint64, clients)
		for c := range streams {
			streams[c] = wl.stream(workload.ClientRNG(o.Seed+19, c))
		}
		var baseRounds float64
		for _, f := range faultCounts {
			// The fault set is drawn deterministically per fault count, so
			// reruns see identical failed modules.
			frng := rand.New(rand.NewSource(o.Seed + 19*int64(f) + 7))
			fs := mpc.NewFaultSet(workload.RandomFaults(frng, inst.s.NumModules, f)...)
			r, err := measure(streams, fs, false)
			if err != nil {
				return err
			}
			r.Workload = wl.name
			r.Faults = fmt.Sprintf("%d", f)
			r.FailedModules = f
			if f == 0 {
				baseRounds = r.RoundsPerBat
			}
			if baseRounds > 0 {
				r.RoundInflate = r.RoundsPerBat / baseRounds
			}
			emit(r)
		}
		if o.FaultSched == "churn" {
			r, err := measure(streams, mpc.NewFaultSet(), true)
			if err != nil {
				return err
			}
			r.Workload = wl.name
			r.Faults = "churn"
			r.FailedModules = -1
			if baseRounds > 0 {
				r.RoundInflate = r.RoundsPerBat / baseRounds
			}
			emit(r)
		}
	}

	fprintf(w, "  (faults = modules seeded failed before the run; every request whose\n")
	fprintf(w, "   variable keeps a live majority commits, the rest fail per-request with\n")
	fprintf(w, "   the quorum verdict and are counted as stranded. q/2 = %d failures are\n", inst.s.Copies/2)
	fprintf(w, "   always maskable; beyond that stranding sets in. \"inflate\" is rounds\n")
	fprintf(w, "   per batch against the same workload at F=0: the round-level\n")
	fprintf(w, "   price of re-selecting quorums around the failed modules.)\n\n")

	if path := o.jsonPath("BENCH_PR5.json"); path != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("e19: writing %s: %w", path, err)
		}
		fprintf(w, "  (wrote %s)\n\n", path)
	}
	return nil
}

// driveShardsFaulty replays the client streams like driveShards, but
// tolerates the degraded-mode outcome: futures failing with the
// ErrIncomplete class (quorum losses included) are counted and the stream
// continues — exactly how a fault-tolerant client consumes the service.
// Any other error aborts. Returns the number of stranded operations.
func driveShardsFaulty(svc *shard.Service, streams [][]uint64, div int, seed int64) (int64, error) {
	const window = 64
	var wg sync.WaitGroup
	var stranded int64
	var mu sync.Mutex
	errs := make(chan error, len(streams))
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.ClientRNG(seed, c)
			stream := streams[c][:len(streams[c])/div]
			futs := make([]*frontend.Future, 0, window)
			bad := int64(0)
			drain := func() bool {
				for _, fut := range futs {
					if _, err := fut.Wait(); err != nil {
						if !errors.Is(err, protocol.ErrIncomplete) {
							errs <- err
							return false
						}
						bad++
					}
				}
				futs = futs[:0]
				return true
			}
			for i, v := range stream {
				var fut *frontend.Future
				var err error
				if rng.Intn(100) < 40 {
					fut, err = svc.WriteAsync(v, uint64(c)<<32|uint64(i))
				} else {
					fut, err = svc.ReadAsync(v)
				}
				if err != nil {
					errs <- err
					return
				}
				futs = append(futs, fut)
				if len(futs) == window && !drain() {
					return
				}
			}
			drain()
			mu.Lock()
			stranded += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return stranded, fmt.Errorf("shard client: %w", err)
		}
	}
	return stranded, nil
}
