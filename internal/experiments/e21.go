package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E21 proves (or honestly disproves, on small hosts) multi-core scaling of
// the lock-free execution layer: the E18 sharded matrix — plus a batched
// AccessBatch variant and an E19-style static-fault rider — re-run at
// GOMAXPROCS ∈ {1, 2, 4, 8, 16}. Every cell drives the same precomputed
// client streams as E18, so differences are attributable to the scheduler
// width and the execution layer alone.
//
// Three comparisons matter:
//
//   - speedup_vs_baseline: against S=1 at the same GOMAXPROCS — what
//     sharding buys at a given core budget;
//   - scale_vs_p1: the same config against itself at GOMAXPROCS=1 — the
//     parallel-scaling curve the ROADMAP asked for;
//   - S=8/batched vs S=8: what the cross-shard batch API saves by
//     claiming k rings with k fetch-adds instead of 64 per-op hops.
//
// The committed BENCH_PR7.json records host metadata (NumCPU, CPU model):
// on a 1-CPU container the scale_vs_p1 column is honestly flat — raising
// GOMAXPROCS past NumCPU adds preemption, not cores — which is exactly the
// ambiguity BENCH_PR4 left and this header resolves.
func E21(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 16, 96000
	procsList := []int{1, 2, 4, 8, 16}
	if o.Quick {
		n = 5
		clients, totalOps = 4, 4000
		procsList = []int{1, 2}
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
	N := inst.s.NumModules

	type e21Cfg struct {
		name    string
		shards  int
		batched bool // drive through AccessBatch instead of per-op calls
		faults  int  // static failed modules (E19 rider)
	}
	configs := []e21Cfg{
		{"S=1", 1, false, 0},
		{"S=8", 8, false, 0},
		{"S=8/batched", 8, true, 0},
		{fmt.Sprintf("S=8/F=%d", int(N)/16), 8, false, int(N) / 16},
	}
	if o.Quick {
		configs = []e21Cfg{
			{"S=1", 1, false, 0},
			{"S=2", 2, false, 0},
			{"S=2/batched", 2, true, 0},
		}
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
	if o.Quick {
		workloads = workloads[:2]
	}

	type row struct {
		Config     string  `json:"config"`
		Workload   string  `json:"workload"`
		Procs      int     `json:"gomaxprocs"`
		Shards     int     `json:"shards"`
		Batched    bool    `json:"batched"`
		Faults     int     `json:"faults,omitempty"`
		NsPerOp    float64 `json:"ns_per_op"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		CombinePct float64 `json:"combine_pct"`
		Imbalance  float64 `json:"imbalance"`
		Stranded   int64   `json:"stranded,omitempty"`
		Speedup    float64 `json:"speedup_vs_baseline"`
		ScaleVsP1  float64 `json:"scale_vs_p1"`
	}
	report := struct {
		Experiment string   `json:"experiment"`
		Quick      bool     `json:"quick"`
		Degree     int      `json:"degree_n"`
		Modules    uint64   `json:"modules"`
		Vars       uint64   `json:"vars"`
		Host       HostInfo `json:"host"`
		Clients    int      `json:"clients"`
		OpsPerRun  int      `json:"ops_per_run"`
		ProcsSwept []int    `json:"procs_swept"`
		Rows       []row    `json:"rows"`
	}{
		Experiment: "e21-multicore-scaling",
		Quick:      o.Quick,
		Degree:     n,
		Modules:    N,
		Vars:       inst.s.NumVariables,
		Host:       Host(),
		Clients:    clients,
		OpsPerRun:  totalOps,
		ProcsSwept: procsList,
	}

	fprintf(w, "E21 Multi-core scaling: lock-free rings + batch API (q=2, n=%d, N=%d, M=%d, %d clients, %d ops/run, NumCPU=%d)\n",
		n, N, inst.s.NumVariables, clients, totalOps, report.Host.NumCPU)
	fprintf(w, "%-20s %-9s %6s %10s %12s %9s %9s %9s\n",
		"config", "workload", "procs", "ns/op", "ops/sec", "combine%", "speedup", "scaleP1")

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	// p1Ns[config/workload] is the GOMAXPROCS=1 median for the scale_vs_p1
	// column; baseNs is per (procs, workload), reset each sweep.
	p1Ns := map[string]float64{}
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		for _, wl := range workloads {
			streams := make([][]uint64, clients)
			for c := range streams {
				streams[c] = wl.stream(workload.ClientRNG(o.Seed+21, c))
			}
			var baseNs float64
			for _, cfg := range configs {
				scfg := shard.Config{
					Shards:   cfg.shards,
					Protocol: o.instrument(protocol.Config{Resolver: resolver}),
				}
				var fs *mpc.FaultSet
				if cfg.faults > 0 {
					fs = mpc.NewFaultSet()
					scfg.Protocol.NewMachine = func(mcfg mpc.Config) (protocol.Machine, error) {
						return mpc.NewFailingShared(mcfg, fs)
					}
				}
				svc, err := shard.New(inst.pp, scfg)
				if err != nil {
					return err
				}
				if fs != nil {
					// Deterministic static fault set, as in E19's ladder.
					frng := rand.New(rand.NewSource(o.Seed + 2100))
					for _, m := range frng.Perm(int(N))[:cfg.faults] {
						fs.Fail(uint64(m))
					}
				}
				drive := func(div int) (int64, error) {
					switch {
					case fs != nil:
						return driveShardsFaulty(svc, streams, div, o.Seed+21)
					case cfg.batched:
						return 0, driveShardsBatched(svc, streams, div, o.Seed+21)
					default:
						return 0, driveShards(svc, streams, div, o.Seed+21)
					}
				}
				if _, err := drive(4); err != nil {
					_ = svc.Close()
					return err
				}
				runtime.GC()
				reps := 3
				if o.Quick {
					reps = 2
				}
				var stranded int64
				elapsedNs := make([]int64, 0, reps)
				for r := 0; r < reps && err == nil; r++ {
					start := time.Now()
					stranded, err = drive(1)
					if ferr := svc.Flush(); err == nil {
						err = ferr
					}
					elapsedNs = append(elapsedNs, time.Since(start).Nanoseconds())
				}
				st := svc.Stats()
				if cerr := svc.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
				if o.ShardStats != nil {
					o.ShardStats(fmt.Sprintf("%s/%s/procs=%d", cfg.name, wl.name, procs), st)
				}
				sort.Slice(elapsedNs, func(i, j int) bool { return elapsedNs[i] < elapsedNs[j] })
				ops := float64(totalOps)
				nsPerOp := float64(elapsedNs[len(elapsedNs)/2]) / ops
				if cfg.shards == 1 {
					baseNs = nsPerOp
				}
				key := cfg.name + "/" + wl.name
				if procs == procsList[0] {
					p1Ns[key] = nsPerOp
				}
				scaleP1 := 0.0
				if p1Ns[key] > 0 {
					scaleP1 = p1Ns[key] / nsPerOp
				}
				speed := baseNs / nsPerOp
				fprintf(w, "%-20s %-9s %6d %10.1f %12.0f %9.1f %8.2fx %8.2fx\n",
					cfg.name, wl.name, procs, nsPerOp, ops*1e9/float64(elapsedNs[len(elapsedNs)/2]),
					100*st.Total.CombiningRate(), speed, scaleP1)
				report.Rows = append(report.Rows, row{
					Config: cfg.name, Workload: wl.name, Procs: procs,
					Shards: cfg.shards, Batched: cfg.batched,
					Faults: cfg.faults, NsPerOp: nsPerOp,
					OpsPerSec:  ops * 1e9 / float64(elapsedNs[len(elapsedNs)/2]),
					CombinePct: 100 * st.Total.CombiningRate(),
					Imbalance:  st.Imbalance(), Stranded: stranded,
					Speedup: speed, ScaleVsP1: scaleP1,
				})
			}
		}
	}
	fprintf(w, "  (speedup is against S=1 at the same GOMAXPROCS and workload;\n")
	fprintf(w, "   scaleP1 is against the same config at GOMAXPROCS=%d. With GOMAXPROCS\n", procsList[0])
	fprintf(w, "   above the host's NumCPU — see the JSON host header — scaleP1 measures\n")
	fprintf(w, "   scheduler overhead, not parallelism.)\n\n")

	if path := o.jsonPath("BENCH_PR7.json"); path != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("e21: writing %s: %w", path, err)
		}
		fprintf(w, "  (wrote %s)\n\n", path)
	}
	return nil
}

// driveShardsBatched replays the same client streams as driveShards, but
// through the cross-shard batch API: each client submits its 64-op window
// as one AccessBatch call (one ring claim per touched shard) instead of 64
// per-op submissions. The read/write coin replays identically, so batched
// and per-op cells are comparable op for op.
func driveShardsBatched(svc *shard.Service, streams [][]uint64, div int, seed int64) error {
	const window = 64
	var wg sync.WaitGroup
	errs := make(chan error, len(streams))
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.ClientRNG(seed, c)
			stream := streams[c][:len(streams[c])/div]
			ops := make([]shard.BatchOp, 0, window)
			flush := func() bool {
				if len(ops) == 0 {
					return true
				}
				b, err := svc.AccessBatch(ops)
				if err == nil {
					err = b.Wait()
				}
				if err != nil {
					errs <- err
					return false
				}
				ops = ops[:0]
				return true
			}
			for i, v := range stream {
				if rng.Intn(100) < 40 {
					ops = append(ops, shard.BatchOp{Write: true, Var: v, Val: uint64(c)<<32 | uint64(i)})
				} else {
					ops = append(ops, shard.BatchOp{Var: v})
				}
				if len(ops) == window && !flush() {
					return
				}
			}
			flush()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return fmt.Errorf("batched shard client: %w", err)
		}
	}
	return nil
}
