package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"detshmem/internal/mpc"
)

// overlapBefore is what each batch of TestOverlappedPhases played before the
// phases overlapped, when every phase drove its own stragglers to completion
// before the next one began: the batch's rounds (TotalRounds, then
// Σ PhaseIterations) and its Φ. Keyed by scheme and batch size N′.
var overlapBefore = map[string]struct{ rounds, phi []int }{
	"q=2/n=5/N'=38":   {[]int{2, 2, 2, 3, 2, 2, 2, 2, 2, 2, 3, 2}, []int{1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1}},
	"q=2/n=5/N'=341":  {[]int{6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 6, 6}, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2}},
	"q=2/n=7/N'=607":  {[]int{3, 2, 4, 3, 4, 3, 3, 3, 3, 2, 4, 3}, []int{2, 1, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2}},
	"q=2/n=7/N'=4096": {[]int{6, 6, 6, 6, 6, 6, 6, 6, 7, 6, 6, 6}, []int{2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2}},
	"q=2/n=7/N'=5461": {[]int{6, 7, 6, 7, 6, 6, 7, 7, 9, 7, 7, 8}, []int{2, 3, 2, 3, 2, 2, 3, 3, 3, 3, 3, 3}},
	"q=4/n=3/N'=11":   {[]int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	"q=4/n=3/N'=273":  {[]int{8, 7, 7, 6, 6, 9, 7, 8, 8, 7, 8, 7}, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
}

// bidBound wraps a machine and fails the test if a round lists more bids, or
// bids from a higher processor, than the System's N-processor machine has.
type bidBound struct {
	Machine
	t     testing.TB
	procs int
}

func (m bidBound) Round(bids []int64, grant []bool) int {
	if len(bids) > m.procs {
		m.t.Fatalf("a round of %d bids on a machine of N = %d processors", len(bids), m.procs)
	}
	if n := len(bids); n > 0 {
		if p := int(bids[n-1] >> 32); p >= m.procs { // the list ascends: the last is the highest
			m.t.Fatalf("a bid from processor %d of %d", p, m.procs)
		}
	}
	return m.Machine.Round(bids, grant)
}

// TestOverlappedPhases pins the gain of overlapped phases in the paper's
// currency: a phase's bids left after its first round ride in the next
// phase's first round, on the processors below its clusters, so a batch of q+1
// phases plays about q+2 rounds where it played 2(q+1). At q=2 n=5/7 and q=4
// n=3, for N′ ∈ {d+1, 4096, N/(q+1)} with d = ⌊N/(q+1)³⌋ (4096 only where it
// is at most N/(q+1)), twelve seeded batches each must play no more rounds
// than overlapBefore, with Φ no higher, and the cell fewer rounds in all —
// unless every phase of every batch finished in one round before, so there
// was nothing to carry, and the cell plays as many. Both the in-place first
// round and the generic path play each cell and agree batch by batch; the
// generic side traces the live counts (TraceLive), which must not switch the
// overlap off, and checks that no round bids from more than N processors.
func TestOverlappedPhases(t *testing.T) {
	for _, mn := range [][2]int{{1, 5}, {1, 7}, {2, 3}} {
		m := newSystem(t, mn[0], mn[1], Config{}).Mapper
		N, c := int(m.NumModules()), m.Copies()
		d := N / (c * c * c)
		for _, size := range []int{d + 1, 4096, N / c} {
			if size > N/c {
				continue
			}
			key := fmt.Sprintf("q=%d/n=%d/N'=%d", c-1, mn[1], size)
			t.Run(key, func(t *testing.T) {
				before, ok := overlapBefore[key]
				if !ok {
					t.Fatalf("no rounds pinned for %s", key)
				}
				inPlace := overlapCell(t, m, size, Config{})
				generic := overlapCell(t, m, size, Config{TraceLive: true, NewMachine: func(mcfg mpc.Config) (Machine, error) {
					mm, err := mpc.New(mcfg)
					return bidBound{Machine: mm, t: t, procs: (N + c - 1) / c * c}, err
				}})
				sum, sumBefore, phases := 0, 0, 0
				for i, got := range inPlace {
					if got != generic[i] {
						t.Fatalf("batch %d: in place %+v, generic %+v", i, got, generic[i])
					}
					if got.rounds > before.rounds[i] || got.phi > before.phi[i] {
						t.Errorf("batch %d: %d rounds, Φ = %d; before the overlap %d rounds, Φ = %d",
							i, got.rounds, got.phi, before.rounds[i], before.phi[i])
					}
					sum += got.rounds
					sumBefore += before.rounds[i]
					phases += got.phases
				}
				if sumBefore == phases && sum != sumBefore || sumBefore > phases && sum >= sumBefore {
					t.Errorf("%d rounds in all, %d before the overlap over %d phases", sum, sumBefore, phases)
				}
			})
		}
	}
}

// overlapOutcome is what TestOverlappedPhases reads of one batch.
type overlapOutcome struct{ rounds, phi, phases int }

// overlapCell plays twelve seeded batches of size requests through one
// System built with cfg, and checks every read against the writes before it
// and, with TraceLive, that each phase has one live count per round it was
// in flight.
func overlapCell(t *testing.T, m Mapper, size int, cfg Config) []overlapOutcome {
	sys, err := NewGenericSystem(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(size)))
	oracle := map[uint64]uint64{}
	var out []overlapOutcome
	var res Result
	for i := 0; i < 12; i++ {
		reqs := digestBatch(rng, m.NumVars(), size, map[uint64]bool{})
		if err := sys.AccessInto(reqs, &res); err != nil {
			t.Fatal(err)
		}
		for j, rq := range reqs {
			if rq.Op == Write {
				oracle[rq.Var] = rq.Value
			} else if res.Values[j] != oracle[rq.Var] {
				t.Fatalf("batch %d: variable %d read %d, last written %d", i, rq.Var, res.Values[j], oracle[rq.Var])
			}
		}
		met := &res.Metrics
		for p, live := range met.LiveTrace {
			if len(live) != met.PhaseIterations[p] || len(live) > 0 && live[len(live)-1] != 0 {
				t.Fatalf("batch %d phase %d: live counts %v over %d rounds in flight", i, p, live, met.PhaseIterations[p])
			}
		}
		out = append(out, overlapOutcome{met.TotalRounds, met.MaxIterations, met.Phases})
	}
	return out
}
