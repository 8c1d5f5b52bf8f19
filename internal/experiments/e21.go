package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// E21 proves (or honestly disproves, on small hosts) multi-core scaling of
// the lock-free execution layer: E18's sharded matrix (shardedMatrix) — plus
// a batched AccessBatch variant and an E19-style static-fault rider — re-run
// at GOMAXPROCS ∈ {1, 2, 4, 8, 16}. Every cell drives the same precomputed
// client operations, so differences are attributable to the scheduler width
// and the execution layer alone.
//
// Three comparisons matter:
//
//   - speedup: against S=1 at the same GOMAXPROCS — what sharding buys at a
//     given core budget;
//   - scaleP1: the same config against itself at GOMAXPROCS=1 — the
//     parallel-scaling curve the ROADMAP asked for;
//   - S=8/batched vs S=8: what the cross-shard batch API saves by
//     claiming k rings with k fetch-adds instead of 64 per-op hops.
//
// The header prints NumCPU: on a 1-CPU container the scaleP1 column is
// honestly flat — raising GOMAXPROCS past NumCPU adds preemption, not cores.
func E21(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 16, 96000
	procsList := []int{1, 2, 4, 8, 16}
	if o.Quick {
		n = 5
		clients, totalOps = 4, 4000
		procsList = []int{1, 2}
	}

	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	resolver, err := protocol.CompileMapper(inst.pp, protocol.CompileOptions{})
	if err != nil {
		return err
	}
	N := inst.s.NumModules

	// The rider's static fault set is drawn deterministically, as E19's
	// ladder is: N/16 failed modules, the same ones in every cell.
	faults := mpc.NewFaultSet()
	for _, m := range rand.New(rand.NewSource(o.Seed + 2100)).Perm(int(N))[:N/16] {
		faults.Fail(uint64(m))
	}
	configs := []shardedConfig{
		{"S=1", 1, false, nil},
		{"S=8", 8, false, nil},
		{"S=8/batched", 8, true, nil},
		{fmt.Sprintf("S=8/F=%d", faults.Count()), 8, false, faults},
	}
	workloads := clientWorkloads(inst.s.NumVariables, totalOps/clients)
	if o.Quick {
		configs = []shardedConfig{
			{"S=1", 1, false, nil},
			{"S=2", 2, false, nil},
			{"S=2/batched", 2, true, nil},
		}
		workloads = workloads[:2]
	}

	fprintf(w, "E21 Multi-core scaling: lock-free rings + batch API (q=2, n=%d, N=%d, M=%d, %d clients, %d ops/run, NumCPU=%d)\n",
		n, N, inst.s.NumVariables, clients, totalOps, runtime.NumCPU())
	fprintf(w, "%-20s %-9s %6s %10s %12s %9s %9s %9s\n",
		"config", "workload", "procs", "ns/op", "ops/sec", "combine%", "speedup", "scaleP1")

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	// p1Ns[config/workload] is the first sweep point's median, for scaleP1.
	p1Ns := map[string]float64{}
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		err := shardedMatrix(o, inst, resolver, o.Seed+21, clients, workloads, configs,
			fmt.Sprintf("/procs=%d", procs), func(c shardedCell) {
				key := c.config + "/" + c.workload
				if procs == procsList[0] {
					p1Ns[key] = c.nsPerOp
				}
				fprintf(w, "%-20s %-9s %6d %10.1f %12.0f %9.1f %8.2fx %8.2fx\n",
					c.config, c.workload, procs, c.nsPerOp, c.opsPerSec, c.combinePct, c.speedup, p1Ns[key]/c.nsPerOp)
			})
		if err != nil {
			return err
		}
	}
	fprintf(w, "  (speedup is against S=1 at the same GOMAXPROCS and workload;\n")
	fprintf(w, "   scaleP1 is against the same config at GOMAXPROCS=%d. With GOMAXPROCS\n", procsList[0])
	fprintf(w, "   above the host's NumCPU — see the header — scaleP1 measures\n")
	fprintf(w, "   scheduler overhead, not parallelism.)\n\n")
	return nil
}
