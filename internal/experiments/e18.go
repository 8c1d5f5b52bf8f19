package experiments

import (
	"fmt"
	"io"
	"runtime"

	"detshmem/internal/protocol"
)

// E18 measures the sharded execution layer: the variable space is
// partitioned over S independent protocol systems (one compiled resolver
// shared by all of them) and each shard runs its own dispatcher, so
// admission, coalescing, and backend flushing proceed per shard with no
// shared serialization point. The shard count S is swept from the single
// dispatcher (S=1) through S=8.
//
// Each (S, workload) cell drives the same precomputed client operations, so
// throughput differences are attributable to the execution layer alone. The
// speedup column is against the S=1 cell of the same workload. On a
// single-core host (GOMAXPROCS=1 in the header) more shards buy no parallel
// protocol execution; multicore hosts add shard parallelism. The matrix body
// is shardedMatrix, which E21 re-runs under a GOMAXPROCS sweep.
func E18(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 16, 96000
	if o.Quick {
		n = 5
		clients, totalOps = 4, 4000
	}

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
	configs := make([]shardedConfig, len(shardCounts))
	for i, shards := range shardCounts {
		configs[i] = shardedConfig{name: fmt.Sprintf("S=%d", shards), shards: shards}
	}

	fprintf(w, "E18 Scaling out: sharded frontend (q=2, n=%d, N=%d, M=%d, %d clients, %d ops/run, GOMAXPROCS=%d)\n",
		n, inst.s.NumModules, inst.s.NumVariables, clients, totalOps, runtime.GOMAXPROCS(0))
	fprintf(w, "%-16s %-9s %10s %12s %10s %10s %9s\n",
		"config", "workload", "ns/op", "ops/sec", "combine%", "imbalance", "speedup")
	err = shardedMatrix(o, inst, resolver, o.Seed+18, clients,
		clientWorkloads(inst.s.NumVariables, totalOps/clients), configs, "", func(c shardedCell) {
			fprintf(w, "%-16s %-9s %10.1f %12.0f %10.1f %10.2f %8.2fx\n",
				c.config, c.workload, c.nsPerOp, c.opsPerSec, c.combinePct, c.imbalance, c.speedup)
		})
	if err != nil {
		return err
	}
	fprintf(w, "  (speedup is against S=1 on the same workload. Routing is the\n")
	fprintf(w, "   splitmix64 hash of the variable id, so all operations on a variable\n")
	fprintf(w, "   hit the same shard: the service is linearizable per variable, with no\n")
	fprintf(w, "   cross-variable order between shards. ops/sec is wall-clock and\n")
	fprintf(w, "   machine-dependent; a GOMAXPROCS=1 host has no parallelism for the\n")
	fprintf(w, "   shards to use.)\n\n")
	return nil
}
