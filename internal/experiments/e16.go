package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E16 measures the hot-path engineering of the batch pipeline: compiled
// address resolution (protocol.CompileMapper — the Section 4 O(log N)
// address computation precomputed into an O(1) table read) against the
// live-resolution baseline (the row labels are those of the committed
// BENCH_PR2.json). Two views:
//
//   - batch: full-N write batches through System.AccessInto (the protocol
//     hot path in isolation), reporting ns/op, MPC rounds, and heap
//     allocations per batch — the steady state must allocate nothing;
//   - frontend: the E15 concurrent-client workload end to end, reporting
//     throughput.
//
// When Options.JSONPath is set the table is also written as JSON (the
// committed BENCH_PR2.json is generated this way), so CI and future PRs can
// diff the numbers mechanically.
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

	type row struct {
		Config      string  `json:"config"`
		NsPerOp     float64 `json:"ns_per_op"`
		Rounds      int     `json:"rounds,omitempty"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
		Speedup     float64 `json:"speedup_vs_live_seq"`
	}
	report := struct {
		Experiment string   `json:"experiment"`
		Quick      bool     `json:"quick"`
		Degree     int      `json:"degree_n"`
		Modules    uint64   `json:"modules"`
		Vars       uint64   `json:"vars"`
		Host       HostInfo `json:"host"`
		Batch      []row    `json:"batch"`
		Frontend   []row    `json:"frontend"`
	}{
		Experiment: "e16-hot-path",
		Quick:      o.Quick,
		Degree:     n,
		Modules:    inst.s.NumModules,
		Vars:       inst.s.NumVariables,
		Host:       Host(),
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
		speed := baseNs / nsPerOp
		fprintf(w, "%-14s %12.0f %8d %11.1f %8.2fx\n", variant.name, nsPerOp, rounds, allocs, speed)
		report.Batch = append(report.Batch, row{
			Config: variant.name, NsPerOp: nsPerOp, Rounds: rounds, AllocsPerOp: allocs, Speedup: speed,
		})
	}

	// Uniform traffic turns nearly every op into a protocol request, so the
	// resolver's per-request saving shows end to end; hot-spot traffic
	// combines most ops away before they reach the memory, so the frontend
	// is dispatcher-bound there and the resolver can only shave the residue.
	fprintf(w, "combining frontend (E15 workload: %d clients, %d ops):\n", clients, totalOps)
	fprintf(w, "%-14s %-9s %12s %11s %12s %9s\n", "config", "workload", "ns/op", "allocs/op", "ops/sec", "speedup")
	for _, wl := range []struct {
		name string
		p    float64
	}{
		{"uniform", 0},
		{"hot-spot", 0.85},
	} {
		baseNs = 0
		streams := make([][]uint64, clients)
		for c := range streams {
			streams[c] = workload.HotSpotStream(o.Seed+16, c, inst.s.NumVariables, totalOps/clients, 16, wl.p)
		}
		for _, variant := range variants {
			svc, err := shard.New(inst.pp, shard.Config{Protocol: variant.cfg})
			if err != nil {
				return err
			}
			// Warm-up pass sizes the dispatcher's scratch and the system's
			// machine; the GC fence keeps one variant's garbage from being
			// collected on another variant's clock.
			if err := driveShards(svc, streams, 4, o.Seed+16); err != nil {
				_ = svc.Close() // the drive error is the one worth surfacing
				return err
			}
			runtime.GC()
			ops0 := svc.Stats().Total.OpsIn
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			err = driveShards(svc, streams, 1, o.Seed+16)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if cerr := svc.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			ops := float64(svc.Stats().Total.OpsIn - ops0)
			nsPerOp := float64(elapsed.Nanoseconds()) / ops
			allocs := float64(ms1.Mallocs-ms0.Mallocs) / ops
			if variant.name == "live+seq" {
				baseNs = nsPerOp
			}
			speed := baseNs / nsPerOp
			fprintf(w, "%-14s %-9s %12.1f %11.2f %12.0f %8.2fx\n",
				variant.name, wl.name, nsPerOp, allocs, ops/elapsed.Seconds(), speed)
			report.Frontend = append(report.Frontend, row{
				Config: variant.name + "/" + wl.name, NsPerOp: nsPerOp, AllocsPerOp: allocs,
				OpsPerSec: ops / elapsed.Seconds(), Speedup: speed,
			})
		}
	}
	fprintf(w, "  (ns and speedups are wall-clock and machine-dependent; allocs/batch of 0\n")
	fprintf(w, "   for the batch path is the PR's steady-state guarantee, pinned by\n")
	fprintf(w, "   TestAccessIntoSteadyStateAllocs. frontend allocs/op include the client\n")
	fprintf(w, "   goroutines' futures, which dominate once the dispatcher itself is\n")
	fprintf(w, "   allocation-free.)\n\n")

	if path := o.jsonPath("BENCH_PR2.json"); path != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("e16: writing %s: %w", path, err)
		}
		fprintf(w, "  (wrote %s)\n\n", path)
	}
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
