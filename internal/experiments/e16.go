package experiments

import (
	"io"
	"math/rand"
	"runtime"
	"time"

	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E16 measures the hot-path engineering of the batch pipeline: compiled
// address resolution (protocol.CompileMapper — the Section 4 O(log N)
// address computation precomputed into an O(1) table read) against the
// live-resolution baseline (the row labels are those of
// docs/history/BENCH_PR2.json). Two views:
//
//   - batch: full-N write batches through System.AccessInto (the protocol
//     hot path in isolation), reporting ns/op, MPC rounds, and heap
//     allocations per batch — the steady state must allocate nothing;
//   - frontend: the E15 concurrent-client workload end to end, reporting
//     throughput.
func E16(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 8, 48000
	minDur := 200 * time.Millisecond
	if o.Quick {
		n = 5
		clients, totalOps = 4, 4000
		minDur = 20 * time.Millisecond
	}

	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	compiled, err := protocol.CompileMapper(inst.pp, protocol.CompileOptions{})
	if err != nil {
		return err
	}
	variants := []struct {
		name string
		cfg  protocol.Config
	}{
		// Computed, not the zero value: shard.New compiles a table of its own
		// for a mapper this size when the strategy leaves it the choice.
		{"live+seq", protocol.Config{Strategy: protocol.ResolverComputed}},
		{"compiled+seq", protocol.Config{Resolver: compiled}},
	}

	fprintf(w, "E16 Hot path: compiled resolution (q=2, n=%d, N=%d, M=%d)\n",
		n, inst.s.NumModules, inst.s.NumVariables)
	fprintf(w, "full-batch writes (N distinct vars per batch, AccessInto):\n")
	fprintf(w, "%-14s %12s %8s %11s %9s\n", "config", "ns/batch", "rounds", "allocs/bat", "speedup")

	N := int(inst.s.NumModules)
	rng := rand.New(rand.NewSource(o.Seed + 16))
	vars := workload.DistinctRandom(rng, inst.s.NumVariables, N)
	reqs := make([]protocol.Request, N)
	for i, v := range vars {
		reqs[i] = protocol.Request{Var: v, Op: protocol.Write, Value: uint64(i)}
	}

	var baseNs float64
	for _, variant := range variants {
		sys, err := protocol.NewGenericSystem(inst.pp, variant.cfg)
		if err != nil {
			return err
		}
		nsPerOp, allocs, rounds, err := measureBatch(sys, reqs, minDur)
		sys.Close()
		if err != nil {
			return err
		}
		if variant.name == "live+seq" {
			baseNs = nsPerOp
		}
		fprintf(w, "%-14s %12.0f %8d %11.1f %8.2fx\n", variant.name, nsPerOp, rounds, allocs, baseNs/nsPerOp)
	}

	// Uniform traffic turns nearly every op into a protocol request, so the
	// resolver's per-request saving shows end to end; hot-spot traffic
	// combines most ops away before they reach the memory, so the frontend
	// is dispatcher-bound there and the resolver can only shave the residue.
	fprintf(w, "combining frontend (E15 workload: %d clients, %d ops):\n", clients, totalOps)
	fprintf(w, "%-14s %-9s %12s %11s %12s %9s\n", "config", "workload", "ns/op", "allocs/op", "ops/sec", "speedup")
	workloads := clientWorkloads(inst.s.NumVariables, totalOps/clients)
	for _, wl := range []clientWorkload{workloads[uniformWorkload], workloads[hotSpotWorkload]} {
		baseNs = 0
		ops := wl.ops(clients, o.Seed+16)
		d := driver{window: 64}
		for _, variant := range variants {
			svc, err := shard.New(inst.pp, shard.Config{Protocol: variant.cfg})
			if err != nil {
				return err
			}
			// Warm-up pass sizes the dispatcher's scratch and the system's
			// machine; the GC fence keeps one variant's garbage from being
			// collected on another variant's clock.
			if _, err := d.drive(svc, warmup(ops)); err != nil {
				_ = svc.Close() // the drive error is the one worth surfacing
				return err
			}
			runtime.GC()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			t, err := d.drive(svc, ops)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if cerr := svc.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			done := float64(t.ops)
			nsPerOp := float64(elapsed.Nanoseconds()) / done
			allocs := float64(ms1.Mallocs-ms0.Mallocs) / done
			if variant.name == "live+seq" {
				baseNs = nsPerOp
			}
			fprintf(w, "%-14s %-9s %12.1f %11.2f %12.0f %8.2fx\n",
				variant.name, wl.name, nsPerOp, allocs, done/elapsed.Seconds(), baseNs/nsPerOp)
		}
	}
	fprintf(w, "  (ns and speedups are wall-clock and machine-dependent; allocs/batch of 0\n")
	fprintf(w, "   for the batch path is the PR's steady-state guarantee, pinned by\n")
	fprintf(w, "   TestAccessIntoSteadyStateAllocs. frontend allocs/op include the client\n")
	fprintf(w, "   goroutines' futures, which dominate once the dispatcher itself is\n")
	fprintf(w, "   allocation-free.)\n\n")
	return nil
}

// measureBatch times repeated AccessInto calls on one reused Result,
// doubling the iteration count until the run is long enough to trust, and
// returns ns/batch, heap allocations/batch, and the batch's MPC rounds.
func measureBatch(sys *protocol.System, reqs []protocol.Request, minDur time.Duration) (nsPerOp, allocsPerOp float64, rounds int, err error) {
	var res protocol.Result
	if err = sys.AccessInto(reqs, &res); err != nil { // warm-up sizes the scratch
		return
	}
	runtime.GC()
	for iters := 1; ; iters *= 2 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err = sys.AccessInto(reqs, &res); err != nil {
				return
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if elapsed >= minDur || iters >= 1<<22 {
			nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
			allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
			rounds = res.Metrics.TotalRounds
			return
		}
	}
}
