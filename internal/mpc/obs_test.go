package mpc

import (
	"testing"

	"detshmem/internal/obs"
)

// TestRecorderEventsBothEngines drives request patterns through a machine
// with a tracer attached and checks every recorded event against
// independently computed ground truth: request counts, grants (== touched
// modules), max load, and the contention histogram. (The test and its one
// subtest keep the ids the committed test floor lists.)
func TestRecorderEventsBothEngines(t *testing.T) {
	const procs, modules, rounds = 48, 16, 20
	t.Run("sequential", func(t *testing.T) {
		tracer := obs.NewTracer(rounds)
		m, err := New(Config{Procs: procs, Modules: modules, Recorder: tracer})
		if err != nil {
			t.Fatal(err)
		}

		for r := 0; r < rounds; r++ {
			loads := make(map[int64]int)
			nreq := 0
			var bids []int64
			for p := 0; p < procs; p++ {
				if (p+r)%7 == 0 {
					continue
				}
				mod := int64((p*(r+3) + r) % modules)
				bids = append(bids, Bid(p, mod))
				loads[mod]++
				nreq++
			}
			served := m.Round(bids, make([]bool, len(bids)))

			evs := tracer.Events()
			if len(evs) != r+1 {
				t.Fatalf("round %d: %d events recorded, want %d", r, len(evs), r+1)
			}
			ev := evs[r]
			if ev.Round != uint64(r) {
				t.Fatalf("round %d: event carries round %d", r, ev.Round)
			}
			if ev.Requests != nreq {
				t.Fatalf("round %d: event reports %d requests, want %d", r, ev.Requests, nreq)
			}
			if ev.Granted != served || ev.Granted != len(loads) {
				t.Fatalf("round %d: granted=%d served=%d touched=%d must all agree",
					r, ev.Granted, served, len(loads))
			}
			var wantHist obs.LoadHist
			maxLoad := 0
			for _, l := range loads {
				wantHist.Observe(l)
				if l > maxLoad {
					maxLoad = l
				}
			}
			if ev.MaxLoad != maxLoad {
				t.Fatalf("round %d: max load %d, want %d", r, ev.MaxLoad, maxLoad)
			}
			if ev.Contention != wantHist {
				t.Fatalf("round %d: contention %v, want %v", r, ev.Contention, wantHist)
			}
		}
		tot := tracer.Totals()
		if tot.Rounds != rounds {
			t.Fatalf("totals: %d rounds, want %d", tot.Rounds, rounds)
		}
	})
}

// TestRecorderDisabledSkipsAssembly checks that a disabled recorder (the
// default Nop and a nil config) records nothing and that enabling via a
// collector aggregates grants exactly.
func TestRecorderDisabledSkipsAssembly(t *testing.T) {
	col := obs.NewCollector()
	for _, cfg := range []Config{
		{Procs: 8, Modules: 4},                    // nil recorder
		{Procs: 8, Modules: 4, Recorder: obs.Nop}, // explicit no-op
		{Procs: 8, Modules: 4, Recorder: col},     // enabled collector
	} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Round(dense(0, 0, 1, 1, 2, 3, Idle, Idle), make([]bool, 8))
	}
	if col.MPCRounds.Load() != 1 || col.MPCGranted.Load() != 4 || col.MPCRequests.Load() != 6 {
		t.Fatalf("collector saw rounds=%d granted=%d requests=%d, want 1/4/6",
			col.MPCRounds.Load(), col.MPCGranted.Load(), col.MPCRequests.Load())
	}
	if col.MaxModuleLoad.Load() != 2 {
		t.Fatalf("max module load %d, want 2", col.MaxModuleLoad.Load())
	}
}

// TestRecorderSteadyStateAllocs pins the ENABLED tracing path at zero
// steady-state allocations per round: ring writes and the load-count scratch
// are reused, so tracing production traffic does not create garbage.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	tracer := obs.NewTracer(64)
	m, err := New(Config{Procs: 96, Modules: 32, Recorder: tracer})
	if err != nil {
		t.Fatal(err)
	}
	bids := make([]int64, 96)
	grant := make([]bool, 96)
	for p := range bids {
		bids[p] = Bid(p, int64(p%32))
	}
	m.Round(bids, grant) // warm-up: sizes the recorder scratch
	if avg := testing.AllocsPerRun(100, func() {
		m.Round(bids, grant)
	}); avg != 0 {
		t.Errorf("traced Round allocates %.2f per call in steady state, want 0", avg)
	}
}
