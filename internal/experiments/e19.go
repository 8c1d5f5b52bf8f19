package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E19 measures live fault tolerance: the frontend keeps serving while
// memory modules crash at runtime. A shared mpc.FaultSet is seeded with F
// random failed modules and the windowed closed loop of drive.go runs
// against it, for F swept from 0 through q/2 (where the paper's quorum
// argument guarantees every variable keeps a live majority) and beyond
// (where some variables provably lose their quorum and their requests must
// fail with the per-request quorum verdict while the rest of the stream
// commits).
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
func E19(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 16, 24000
	if o.Quick {
		n = 5
		clients, totalOps = 4, 3000
	}

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

	type row struct {
		nsPerOp, opsPerSec       float64
		strandedOps              int64 // refused client operations per run
		strandedReqs             int64 // protocol requests without a quorum, all runs
		retriedBids, droppedBids int64
		roundsPerBatch           float64
	}

	fprintf(w, "E19 Fault tolerance: runtime module failures (q=2, n=%d, N=%d, M=%d, quorum=%d, %d clients, %d ops/run)\n",
		n, inst.s.NumModules, inst.s.NumVariables, inst.s.Majority, clients, totalOps)
	fprintf(w, "%-9s %7s %10s %12s %9s %9s %9s %9s %8s %9s\n",
		"workload", "faults", "ns/op", "ops/sec", "strandOp", "strandRq", "retried", "dropped", "rnd/bat", "inflate")

	// Degraded mode is the expected outcome here: operations refused with an
	// ErrIncomplete-class verdict (quorum losses included) are counted as
	// stranded and the stream continues.
	d := driver{window: 64, tolerate: protocol.ErrIncomplete}
	measure := func(ops [][]shard.BatchOp, fs *mpc.FaultSet, churn bool) (row, error) {
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
		med, run, err := measureCell(svc, ops, d, o.Quick)
		stopChurn()
		st := svc.Stats()
		snap := svc.Snapshot()
		if cerr := svc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return row{}, err
		}
		var dropped int64
		for k, v := range snap {
			if strings.HasSuffix(k, "_dropped_bids_total") {
				dropped += v
			}
		}
		r := row{
			nsPerOp:      float64(med.Nanoseconds()) / float64(totalOps),
			opsPerSec:    float64(totalOps) / med.Seconds(),
			strandedOps:  run.stranded + run.blocked,
			strandedReqs: st.Total.Stranded,
			retriedBids:  st.Total.RetriedBids,
			droppedBids:  dropped,
		}
		if st.Total.Batches > 0 {
			r.roundsPerBatch = float64(st.Total.TotalRounds) / float64(st.Total.Batches)
		}
		return r, nil
	}

	emit := func(wl, faults string, r row, baseRounds float64) {
		inflate := 0.0
		if baseRounds > 0 {
			inflate = r.roundsPerBatch / baseRounds
		}
		fprintf(w, "%-9s %7s %10.1f %12.0f %9d %9d %9d %9d %8.2f %8.2fx\n",
			wl, faults, r.nsPerOp, r.opsPerSec,
			r.strandedOps, r.strandedReqs, r.retriedBids, r.droppedBids,
			r.roundsPerBatch, inflate)
	}

	for _, wl := range clientWorkloads(inst.s.NumVariables, totalOps/clients) {
		ops := wl.ops(clients, o.Seed+19)
		var baseRounds float64
		for _, f := range faultCounts {
			// The fault set is drawn deterministically per fault count, so
			// reruns see identical failed modules.
			frng := rand.New(rand.NewSource(o.Seed + 19*int64(f) + 7))
			fs := mpc.NewFaultSet(workload.RandomFaults(frng, inst.s.NumModules, f)...)
			r, err := measure(ops, fs, false)
			if err != nil {
				return err
			}
			if f == 0 {
				baseRounds = r.roundsPerBatch
			}
			emit(wl.name, fmt.Sprintf("%d", f), r, baseRounds)
		}
		if o.FaultSched == "churn" {
			r, err := measure(ops, mpc.NewFaultSet(), true)
			if err != nil {
				return err
			}
			emit(wl.name, "churn", r, baseRounds)
		}
	}

	fprintf(w, "  (faults = modules seeded failed before the run; every request whose\n")
	fprintf(w, "   variable keeps a live majority commits, the rest fail per-request with\n")
	fprintf(w, "   the quorum verdict and are counted as stranded. q/2 = %d failures are\n", inst.s.Copies/2)
	fprintf(w, "   always maskable; beyond that stranding sets in. \"inflate\" is rounds\n")
	fprintf(w, "   per batch against the same workload at F=0: the round-level\n")
	fprintf(w, "   price of re-selecting quorums around the failed modules.)\n\n")
	return nil
}
