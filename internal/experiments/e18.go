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

	"detshmem/internal/frontend"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E18 measures the sharded execution layer: the variable space is
// partitioned over S independent protocol systems (one compiled resolver
// shared by all of them) and each shard runs its own dispatcher, so
// admission, coalescing, and backend flushing proceed per shard with no
// shared serialization point. The shard count S is swept from the single
// dispatcher (S=1) through S=8.
//
// Each (S, workload) cell drives the same precomputed client streams, so
// throughput differences are attributable to the execution layer alone. The
// speedup column is against the S=1 cell of the same workload. On a
// single-core host (gomaxprocs 1 in the JSON) more shards buy no parallel
// protocol execution; multicore hosts add shard parallelism.
//
// When JSON output is requested the table is written to BENCH_PR4.json, so
// CI and future PRs can diff the numbers mechanically. (The committed
// BENCH_PR4.json predates the deletion of the channel dispatcher and still
// carries its S=1/classic baseline rows and a pipeline column.)
func E18(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 16, 96000
	if o.Quick {
		n = 5
		clients, totalOps = 4, 4000
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

	shardCounts := []int{1, 2, 4, 8}
	if o.Quick {
		shardCounts = shardCounts[:3]
	}
	if o.Shards > 0 {
		shardCounts = []int{1} // the speedup baseline always runs
		if o.Shards != 1 {
			shardCounts = append(shardCounts, o.Shards)
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

	type row struct {
		Config     string  `json:"config"`
		Workload   string  `json:"workload"`
		Shards     int     `json:"shards"`
		NsPerOp    float64 `json:"ns_per_op"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		CombinePct float64 `json:"combine_pct"`
		Imbalance  float64 `json:"imbalance"`
		Speedup    float64 `json:"speedup_vs_baseline"`
	}
	report := struct {
		Experiment string   `json:"experiment"`
		Quick      bool     `json:"quick"`
		Degree     int      `json:"degree_n"`
		Modules    uint64   `json:"modules"`
		Vars       uint64   `json:"vars"`
		GoMaxProcs int      `json:"gomaxprocs"`
		Host       HostInfo `json:"host"`
		Clients    int      `json:"clients"`
		OpsPerRun  int      `json:"ops_per_run"`
		Rows       []row    `json:"rows"`
	}{
		Experiment: "e18-sharded-frontend",
		Quick:      o.Quick,
		Degree:     n,
		Modules:    inst.s.NumModules,
		Vars:       inst.s.NumVariables,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       Host(),
		Clients:    clients,
		OpsPerRun:  totalOps,
	}

	fprintf(w, "E18 Scaling out: sharded frontend (q=2, n=%d, N=%d, M=%d, %d clients, %d ops/run, GOMAXPROCS=%d)\n",
		n, inst.s.NumModules, inst.s.NumVariables, clients, totalOps, report.GoMaxProcs)
	fprintf(w, "%-16s %-9s %10s %12s %10s %10s %9s\n",
		"config", "workload", "ns/op", "ops/sec", "combine%", "imbalance", "speedup")

	for _, wl := range workloads {
		// One stream set per workload, shared by every config: the op
		// sequences (and each client's read/write coin) are identical across
		// configs, so the sweep isolates the execution layer.
		streams := make([][]uint64, clients)
		for c := range streams {
			streams[c] = wl.stream(workload.ClientRNG(o.Seed+18, c))
		}
		var baseNs float64
		for _, shards := range shardCounts {
			label := fmt.Sprintf("S=%d", shards)
			svc, err := shard.New(inst.pp, shard.Config{
				Shards:   shards,
				Protocol: o.instrument(protocol.Config{Resolver: resolver}),
			})
			if err != nil {
				return err
			}
			// Warm-up sizes every shard's scratch; the GC fence keeps one
			// config's garbage off another config's clock. Each cell is then
			// measured over several repetitions and reported as the median,
			// since a single ~tens-of-ms run is at the mercy of scheduler noise.
			if err := driveShards(svc, streams, 4, o.Seed+18); err != nil {
				_ = svc.Close()
				return err
			}
			runtime.GC()
			reps := 3
			if o.Quick {
				reps = 2
			}
			elapsedNs := make([]int64, 0, reps)
			for r := 0; r < reps && err == nil; r++ {
				start := time.Now()
				err = driveShards(svc, streams, 1, o.Seed+18)
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
				o.ShardStats(label+"/"+wl.name, st)
			}
			sort.Slice(elapsedNs, func(i, j int) bool { return elapsedNs[i] < elapsedNs[j] })
			ops := float64(totalOps)
			nsPerOp := float64(elapsedNs[len(elapsedNs)/2]) / ops
			elapsed := time.Duration(elapsedNs[len(elapsedNs)/2])
			if shards == 1 {
				baseNs = nsPerOp
			}
			speed := baseNs / nsPerOp
			imb := st.Imbalance()
			fprintf(w, "%-16s %-9s %10.1f %12.0f %10.1f %10.2f %8.2fx\n",
				label, wl.name, nsPerOp, ops/elapsed.Seconds(),
				100*st.Total.CombiningRate(), imb, speed)
			report.Rows = append(report.Rows, row{
				Config: label, Workload: wl.name, Shards: shards,
				NsPerOp: nsPerOp, OpsPerSec: ops / elapsed.Seconds(),
				CombinePct: 100 * st.Total.CombiningRate(),
				Imbalance:  imb, Speedup: speed,
			})
		}
	}
	fprintf(w, "  (speedup is against S=1 on the same workload. Routing is the\n")
	fprintf(w, "   splitmix64 hash of the variable id, so all operations on a variable\n")
	fprintf(w, "   hit the same shard: the service is linearizable per variable, with no\n")
	fprintf(w, "   cross-variable order between shards. ops/sec is wall-clock and\n")
	fprintf(w, "   machine-dependent; a GOMAXPROCS=1 host has no parallelism for the\n")
	fprintf(w, "   shards to use.)\n\n")

	if path := o.jsonPath("BENCH_PR4.json"); path != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("e18: writing %s: %w", path, err)
		}
		fprintf(w, "  (wrote %s)\n\n", path)
	}
	return nil
}

// driveShards replays each client's precomputed stream against the service
// in asynchronous windows (40% writes, decided by the client's own RNG so
// the coin flips replay identically across configs). div shrinks the run
// (div=4 drives a quarter of each stream for warm-up).
func driveShards(svc *shard.Service, streams [][]uint64, div int, seed int64) error {
	const window = 64
	var wg sync.WaitGroup
	errs := make(chan error, len(streams))
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.ClientRNG(seed, c)
			stream := streams[c][:len(streams[c])/div]
			futs := make([]*frontend.Future, 0, window)
			drain := func() bool {
				for _, fut := range futs {
					if _, err := fut.Wait(); err != nil {
						errs <- err
						return false
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
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return fmt.Errorf("shard client: %w", err)
		}
	}
	return nil
}
