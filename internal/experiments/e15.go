package experiments

import (
	"io"
	"time"

	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// E15 measures request combining at a single shard: concurrent clients submit
// asynchronous read/write streams, the dispatcher coalesces them into
// EREW-legal protocol batches, and the table reports how many protocol
// requests actually reached the memory versus raw client operations
// (combining rate), alongside throughput. On hot-spot traffic the frontend
// should issue far fewer requests than it admits — the same effect CRCW
// combining has inside one PRAM step, applied across asynchronous clients —
// while uniform traffic shows the protocol-bound baseline.
func E15(w io.Writer, o Options) error {
	n := 5
	totalOps := 24000
	clientCounts := []int{4, 32}
	if o.Quick {
		n = 3
		totalOps = 3000
		clientCounts = []int{2, 8}
	}
	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	schemes := []protocol.Mapper{inst.pp, inst.mv, inst.si}

	fprintf(w, "E15 Combining frontend: concurrent clients over the batch protocol (q=2, n=%d, N=%d, M=%d, %d ops/run)\n",
		n, inst.s.NumModules, inst.s.NumVariables, totalOps)
	fprintf(w, "%-18s %-9s %8s %8s %9s %10s %7s %8s %12s\n",
		"scheme", "workload", "clients", "ops in", "reqs out", "combine%", "maxΦ", "rounds", "ops/sec")
	for _, m := range schemes {
		for _, wi := range []int{uniformWorkload, hotSpotWorkload} {
			for _, clients := range clientCounts {
				svc, err := shard.New(m, shard.Config{})
				if err != nil {
					return err
				}
				wl := clientWorkloads(m.NumVars(), totalOps/clients)[wi]
				ops := wl.ops(clients, o.Seed+15)
				start := time.Now()
				_, err = driver{window: 64}.drive(svc, ops)
				if cerr := svc.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
				elapsed := time.Since(start)
				s := svc.Stats().Total
				fprintf(w, "%-18s %-9s %8d %8d %9d %10.1f %7d %8d %12.0f\n",
					m.Name(), wl.name, clients, s.OpsIn, s.RequestsOut,
					100*s.CombiningRate(), s.MaxPhi, s.TotalRounds,
					float64(s.OpsIn)/elapsed.Seconds())
			}
		}
	}
	fprintf(w, "  (combine%% = ops that never became protocol requests: shared reads,\n")
	fprintf(w, "   last-writer-wins coalescing, and read-after-write forwarding. Hot-spot\n")
	fprintf(w, "   traffic combines heavily — the issued-request count decouples from the\n")
	fprintf(w, "   op count — while uniform traffic stays protocol-bound. ops/sec is\n")
	fprintf(w, "   wall-clock and machine-dependent; all other columns are deterministic\n")
	fprintf(w, "   up to goroutine interleaving.)\n\n")
	return nil
}
