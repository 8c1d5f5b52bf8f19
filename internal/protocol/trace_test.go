package protocol

import (
	"errors"
	"testing"

	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// TestTraceReplayMatchesMetrics is the trace-replay cross-check: several
// batches run through the MPC engine with a tracer, a collector, and a
// batch observer attached, and the tracer's replayed totals must equal the
// sums of the per-batch protocol.Metrics the caller already gets. This pins
// the contract that the instrumentation layer is a view of the protocol,
// not a second bookkeeping system that can drift. The faulted cell runs the
// batches over mpc.Failing with a static fault set — one variable stranded,
// another re-selected — plus one module failed at the first round of a later
// batch, and the books must still balance: every issued bid is a traced live
// request or a bid the fault layer dropped. The static cell runs the same
// static fault set over the bare mpc.Failing, whose phases play their first
// rounds in place (firstRound): they drop nothing, and the books balance
// with zero dropped bids.
func TestTraceReplayMatchesMetrics(t *testing.T) {
	// "sequential" keeps the id the committed test floor lists.
	for _, cell := range []string{"sequential", "faulted", "static"} {
		t.Run(cell, func(t *testing.T) {
			tracer := obs.NewTracer(0)
			col := obs.NewCollector()
			cfg := Config{Recorder: obs.Multi(tracer, col), Observer: col}
			fs := mpc.NewFaultSet()
			var failing *mpc.Failing
			round := 0
			script := map[int]func(*mpc.FaultSet){}
			if cell != "sequential" {
				cfg.NewMachine = func(mcfg mpc.Config) (Machine, error) {
					f, err := mpc.NewFailingShared(mcfg, fs)
					failing = f
					if cell == "static" {
						return f, err
					}
					return &flipMachine{Failing: f, round: &round, script: script}, err
				}
			}
			sys, reqs := allocSystem(t, cfg)
			copyMod := func(r, c int) uint64 { mod, _ := sys.Mapper.CopyAddr(reqs[r].Var, c); return mod }
			if cell != "sequential" {
				for c := 0; c < sys.Mapper.Copies(); c++ {
					fs.Fail(copyMod(0, c))
				}
				fs.Fail(copyMod(1, 0))
			}

			var sumRounds, sumGranted, sumCopies, sumReqs, sumIssued, sumStranded int
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
				if cell == "faulted" && b == 2 {
					mod := copyMod(2, 0)
					script[round+1] = func(fs *mpc.FaultSet) { fs.Fail(mod) }
				}
				if err := sys.AccessInto(reqs, &res); err != nil && (cell == "sequential" || !errors.Is(err, ErrIncomplete)) {
					t.Fatal(err)
				}
				sumRounds += res.Metrics.TotalRounds
				sumGranted += res.Metrics.GrantedBids
				sumCopies += res.Metrics.CopyAccesses
				sumIssued += res.Metrics.IssuedBids
				sumStranded += len(res.Metrics.Stranded)
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
			if totals.Requests+totals.DroppedBids != uint64(sumIssued) {
				t.Errorf("traced requests %d + dropped bids %d != IssuedBids sum %d", totals.Requests, totals.DroppedBids, sumIssued)
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
			if got := col.IssuedBids.Load(); got != int64(sumIssued) {
				t.Errorf("collector issued bids %d != metrics sum %d", got, sumIssued)
			}
			if got := col.DroppedBids.Load(); uint64(got) != totals.DroppedBids {
				t.Errorf("collector dropped bids %d != tracer dropped bids %d", got, totals.DroppedBids)
			}
			if got := col.Batches.Load(); got != batches {
				t.Errorf("collector saw %d batches, want %d", got, batches)
			}
			if got := col.Requests.Load(); got != int64(sumReqs) {
				t.Errorf("collector saw %d requests, want %d", got, sumReqs)
			}

			switch cell {
			case "faulted":
				if failing == nil || totals.DroppedBids == 0 || totals.DroppedBids != failing.DroppedBids() {
					t.Errorf("the mid-batch failure dropped %d traced bids, the fault layer counted %v", totals.DroppedBids, failing.DroppedBids())
				}
			case "static":
				if sys.inPlace != failing.InPlace() || totals.DroppedBids != 0 || failing.DroppedBids() != 0 {
					t.Errorf("bare Failing found: %v; %d traced and %d counted dropped bids, want none",
						sys.inPlace != nil, totals.DroppedBids, failing.DroppedBids())
				}
			}
			if cell != "sequential" && sumStranded != batches {
				t.Errorf("%d stranded requests over %d batches, want the one dead variable's each batch", sumStranded, batches)
			} else if cell == "sequential" && (totals.DroppedBids != 0 || sumStranded != 0) {
				t.Errorf("healthy run dropped %d bids and stranded %d requests", totals.DroppedBids, sumStranded)
			}
		})
	}
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
