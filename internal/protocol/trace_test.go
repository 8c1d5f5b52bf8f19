package protocol

import (
	"testing"

	"detshmem/internal/obs"
)

// TestTraceReplayMatchesMetrics is the trace-replay cross-check: several
// batches run through the MPC engine with a tracer, a collector, and a
// batch observer attached, and the tracer's replayed totals must equal the
// sums of the per-batch protocol.Metrics the caller already gets. This pins
// the contract that the instrumentation layer is a view of the protocol,
// not a second bookkeeping system that can drift.
func TestTraceReplayMatchesMetrics(t *testing.T) {
	// The subtest keeps the id the committed test floor lists.
	t.Run("sequential", func(t *testing.T) {
		tracer := obs.NewTracer(0)
		col := obs.NewCollector()
		sys, reqs := allocSystem(t, Config{Recorder: obs.Multi(tracer, col), Observer: col})

		var sumRounds, sumGranted, sumCopies, sumReqs int
		var res Result
		const batches = 5
		for b := 0; b < batches; b++ {
			// Rotate ops and values so each batch takes its own path
			// through the phase loop.
			for i := range reqs {
				if (i+b)%2 == 0 {
					reqs[i].Op = Write
					reqs[i].Value = uint64(b*1000 + i)
				} else {
					reqs[i].Op = Read
				}
			}
			if err := sys.AccessInto(reqs, &res); err != nil {
				t.Fatal(err)
			}
			sumRounds += res.Metrics.TotalRounds
			sumGranted += res.Metrics.GrantedBids
			sumCopies += res.Metrics.CopyAccesses
			sumReqs += len(reqs)
		}

		totals := tracer.Totals()
		if totals.Rounds != uint64(sumRounds) {
			t.Errorf("tracer replayed %d rounds, metrics sum to %d", totals.Rounds, sumRounds)
		}
		if totals.Granted != uint64(sumGranted) {
			t.Errorf("tracer replayed %d grants, GrantedBids sum to %d", totals.Granted, sumGranted)
		}
		if sumGranted < sumCopies {
			t.Errorf("GrantedBids %d < CopyAccesses %d: cancelled-bid slack must be non-negative", sumGranted, sumCopies)
		}

		// Per-event invariants: one grant per touched module, and a
		// round never grants more than it was asked.
		var evGranted uint64
		for _, ev := range tracer.Events() {
			if ev.Granted != ev.Contention.Modules() {
				t.Fatalf("round %d: %d grants but contention histogram holds %d modules",
					ev.Round, ev.Granted, ev.Contention.Modules())
			}
			if ev.Granted > ev.Requests {
				t.Fatalf("round %d: granted %d > requested %d", ev.Round, ev.Granted, ev.Requests)
			}
			evGranted += uint64(ev.Granted)
		}
		if tracer.Dropped() == 0 && evGranted != totals.Granted {
			t.Errorf("event-level grants %d disagree with totals %d", evGranted, totals.Granted)
		}

		// Collector view: round counters match the tracer, batch
		// counters match the summed metrics.
		if got := col.MPCRounds.Load(); uint64(got) != totals.Rounds {
			t.Errorf("collector rounds %d != tracer rounds %d", got, totals.Rounds)
		}
		if got := col.Rounds.Load(); got != int64(sumRounds) {
			t.Errorf("collector batch rounds %d != metrics sum %d", got, sumRounds)
		}
		if got := col.GrantedBids.Load(); got != int64(sumGranted) {
			t.Errorf("collector granted bids %d != metrics sum %d", got, sumGranted)
		}
		if got := col.CopyAccesses.Load(); got != int64(sumCopies) {
			t.Errorf("collector copy accesses %d != metrics sum %d", got, sumCopies)
		}
		if got := col.Batches.Load(); got != batches {
			t.Errorf("collector saw %d batches, want %d", got, batches)
		}
		if got := col.Requests.Load(); got != int64(sumReqs) {
			t.Errorf("collector saw %d requests, want %d", got, sumReqs)
		}
	})
}

// TestObserverEmptyBatch pins the degenerate path: an empty request batch
// still produces exactly one BatchEvent with all-zero counts.
func TestObserverEmptyBatch(t *testing.T) {
	col := obs.NewCollector()
	sys, _ := allocSystem(t, Config{Observer: col})
	var res Result
	if err := sys.AccessInto(nil, &res); err != nil {
		t.Fatal(err)
	}
	if col.Batches.Load() != 1 || col.Requests.Load() != 0 || col.Rounds.Load() != 0 {
		t.Fatalf("empty batch observed as %+v", col.Snapshot())
	}
}
