package experiments

import (
	"fmt"
	"io"
	"math"

	"detshmem/internal/analysis"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// E17 exercises the observability layer end to end: it runs one full-N
// write batch with a ring-buffer tracer attached to the MPC, prints the
// per-round trajectory (live requests, granted copies, worst per-module
// contention) whose decay is the measurable content of Theorem 6, and
// cross-checks the tracer's running totals against the batch's own
// protocol.Metrics — the trace-replay consistency the instrumentation
// guarantees (rounds recorded == TotalRounds, grants == GrantedBids).
// `smembench -exp e17 -trace trace.json` dumps the same trajectory as JSON
// for plotting against the Theorem 6 bound.
func E17(w io.Writer, o Options) error {
	n := 7
	if o.Quick {
		n = 5
	}
	tracer := obs.NewTracer(0)
	col := obs.NewCollector()
	cfg := protocol.Config{
		Recorder: obs.Multi(tracer, col, o.Recorder),
		Observer: obs.MultiBatch(col, o.Observer),
	}
	sys, err := newSystem(o, 1, n, cfg)
	if err != nil {
		return err
	}
	N := int(sys.Scheme.NumModules)
	vars := workload.DistinctRandom(o.Rng(), sys.Index.M(), N)
	vals := make([]uint64, N)
	met, err := sys.WriteBatch(vars, vals)
	if err != nil {
		return err
	}

	events := tracer.Events()
	totals := tracer.Totals()
	fprintf(w, "E17 one full-N write batch (q=2, n=%d, N=%d), Φ=%d, rounds=%d\n",
		n, N, met.MaxIterations, met.TotalRounds)
	fprintf(w, "%7s %9s %9s %8s\n", "round", "requests", "granted", "maxload")
	step := 1 + len(events)/12
	for i := 0; i < len(events); i += step {
		ev := events[i]
		fprintf(w, "%7d %9d %9d %8d\n", i, ev.Requests, ev.Granted, ev.MaxLoad)
	}
	fprintf(w, "  Theorem 6 Φ bound shape: %.1f (measured Φ %d, Φ/N^{1/3} = %.3f)\n",
		analysis.Theorem6Bound(uint64(N)), met.MaxIterations,
		float64(met.MaxIterations)/math.Cbrt(float64(N)))

	// Trace-replay cross-check: the trace must account for exactly the
	// rounds and grants the protocol metrics report.
	ok := totals.Rounds == uint64(met.TotalRounds) &&
		totals.Granted == uint64(met.GrantedBids) &&
		col.Rounds.Load() == int64(met.TotalRounds) &&
		col.GrantedBids.Load() == int64(met.GrantedBids)
	mark := "consistent"
	if !ok {
		mark = "!! INCONSISTENT"
	}
	fprintf(w, "  trace totals: rounds=%d granted=%d requests=%d maxload=%d dropped=%d — %s\n",
		totals.Rounds, totals.Granted, totals.Requests, totals.MaxLoad, tracer.Dropped(), mark)
	fprintf(w, "  copy accesses %d ≤ granted bids %d (cancelled slack %d)\n\n",
		met.CopyAccesses, met.GrantedBids, met.GrantedBids-met.CopyAccesses)
	if !ok {
		return fmt.Errorf("e17: trace totals (rounds=%d granted=%d) diverge from protocol metrics (rounds=%d granted=%d)",
			totals.Rounds, totals.Granted, met.TotalRounds, met.GrantedBids)
	}
	return nil
}
