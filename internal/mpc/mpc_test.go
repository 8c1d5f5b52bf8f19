package mpc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"detshmem/internal/obs"
)

func newMachine(t testing.TB, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dense returns the bid list of a per-processor request vector: processor
// p's bid sits at position p, Idle where p makes no request, so grant[p]
// answers processor p.
func dense(reqs ...int64) []int64 {
	bids := make([]int64, len(reqs))
	for p, mod := range reqs {
		bids[p] = Idle
		if mod != Idle {
			bids[p] = Bid(p, mod)
		}
	}
	return bids
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0, Modules: 4}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := New(Config{Procs: 4, Modules: -1}); err == nil {
		t.Error("negative modules accepted")
	}
	// A bid carries its processor in the high word of a non-negative int64:
	// 2^31 processors do not fit, 2^31 − 1 do. New allocates per module, not
	// per processor.
	for _, procs := range []int{1<<31 - 2, 1<<31 - 1} {
		if m, err := New(Config{Procs: procs, Modules: 1}); err != nil || m.Procs() != procs {
			t.Errorf("Procs=%d: %v", procs, err)
		}
	}
	for _, cfg := range []Config{{Procs: 1 << 31, Modules: 1}, {Procs: 1 << 32, Modules: 1}, {Procs: 1, Modules: 1<<32 + 1}} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%+v accepted: its bids cannot carry every processor and module", cfg)
		}
	}
	top := Bid(1<<31-1, 1<<32-1)
	if top < 0 || BidProc(top) != 1<<31-1 || BidModule(top) != 1<<32-1 {
		t.Errorf("the top bid %#x unpacks as processor %d, module %d", top, BidProc(top), BidModule(top))
	}
}

// randomList draws a round: each of procs processors bids with probability
// 3/4, at a random module, in ascending processor order.
func randomList(rng *rand.Rand, procs, modules int) []int64 {
	var bids []int64
	for p := 0; p < procs; p++ {
		if rng.Intn(4) != 0 {
			bids = append(bids, Bid(p, int64(rng.Intn(modules))))
		}
	}
	return bids
}

// TestOneGrantPerModule: the defining MPC constraint — at most one request
// per module is served, every requested module serves someone, and the one
// it serves is the lowest requesting processor (the rule a remote module
// server applies to the same bids).
func TestOneGrantPerModule(t *testing.T) {
	const procs, modules = 100, 10
	m := newMachine(t, Config{Procs: procs, Modules: modules})
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		bids := randomList(rng, procs, modules)
		grant := make([]bool, len(bids))
		served := m.Round(bids, grant)
		lowest := make(map[int64]int) // module -> lowest requesting processor
		for _, b := range bids {
			if _, ok := lowest[BidModule(b)]; !ok {
				lowest[BidModule(b)] = BidProc(b)
			}
		}
		total := 0
		for i, g := range grant {
			if !g {
				continue
			}
			p, mod := BidProc(bids[i]), BidModule(bids[i])
			if want := lowest[mod]; want != p {
				t.Fatalf("round=%d: module %d served processor %d, lowest requester is %d", round, mod, p, want)
			}
			total++
		}
		if total != served || total != len(lowest) {
			t.Fatalf("round=%d: served=%d, %d grants, %d modules requested", round, served, total, len(lowest))
		}
	}
}

// TestLowestArbiterDeterminism: the winner is the smallest requesting
// processor id, and a withdrawn (Idle) entry is never granted.
func TestLowestArbiterDeterminism(t *testing.T) {
	m := newMachine(t, Config{Procs: 8, Modules: 2})
	bids := []int64{Bid(0, 1), Bid(1, 1), Bid(2, 0), Bid(3, 1), Idle, Bid(5, 0), Bid(6, 1)}
	grant := make([]bool, len(bids))
	if served := m.Round(bids, grant); served != 2 {
		t.Fatalf("served = %d, want 2", served)
	}
	want := []bool{true, false, true, false, false, false, false}
	for i := range want {
		if grant[i] != want[i] {
			t.Fatalf("grant[%d] = %v, want %v", i, grant[i], want[i])
		}
	}
}

// TestServedCountProperty: in any round, served == number of distinct
// requested modules (each requested module serves exactly one).
func TestServedCountProperty(t *testing.T) {
	m := newMachine(t, Config{Procs: 32, Modules: 8})
	grant := make([]bool, 32)
	prop := func(raw [32]uint8) bool {
		var bids []int64
		distinct := make(map[int64]bool)
		for p, r := range raw {
			if r%5 != 0 {
				bids = append(bids, Bid(p, int64(r)%8))
				distinct[int64(r)%8] = true
			}
		}
		return m.Round(bids, grant[:len(bids)]) == len(distinct)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoundsCounter(t *testing.T) {
	m := newMachine(t, Config{Procs: 2, Modules: 2})
	bids := []int64{Bid(0, 0), Bid(1, 1)}
	grant := make([]bool, 2)
	for i := 0; i < 5; i++ {
		m.Round(bids, grant)
	}
	if m.Rounds() != 5 {
		t.Fatalf("Rounds() = %d", m.Rounds())
	}
}

// TestRoundPanicsOnBadSizes: a round whose lists disagree in length, or hold
// more bids than the machine has processors, panics. The id is the one the
// committed test floor lists.
func TestRoundPanicsOnBadSizes(t *testing.T) {
	m := newMachine(t, Config{Procs: 4, Modules: 2})
	for _, sizes := range [][2]int{{3, 4}, {4, 3}, {5, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d bids and %d grants: no panic", sizes[0], sizes[1])
				}
			}()
			bids := make([]int64, sizes[0])
			for i := range bids {
				bids[i] = Bid(i, 0)
			}
			m.Round(bids, make([]bool, sizes[1]))
		}()
	}
}

// TestRoundPanicsOnBadLists: arbitration is one first-claim pass, which
// picks the lowest processor only on a list in strictly ascending processor
// order — so a list out of that order panics, as does a bid naming a
// processor or module the machine does not have, rather than silently
// serving someone else.
func TestRoundPanicsOnBadLists(t *testing.T) {
	m := newMachine(t, Config{Procs: 4, Modules: 2})
	for name, bids := range map[string][]int64{
		"descending":       {Bid(2, 0), Bid(1, 1)},
		"repeated":         {Bid(1, 0), Bid(1, 1)},
		"after an Idle":    {Bid(3, 0), Idle, Bid(2, 1)},
		"processor beyond": {Bid(0, 0), Bid(4, 1)},
		"module beyond":    {Bid(0, 2)},
		"negative":         {-2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %x accepted", name, bids)
				}
			}()
			m.Round(bids, make([]bool, len(bids)))
		}()
	}
	// The panics left no claim behind: a valid round still grants normally.
	grant := make([]bool, 2)
	if served := m.Round([]int64{Bid(0, 0), Bid(1, 1)}, grant); served != 2 || !grant[0] || !grant[1] {
		t.Fatalf("round after the rejected lists served %d, grants %v", served, grant)
	}
}

// TestClaimsInPlace: a round played in place through OpenRound, Claim and
// CloseRound keeps Round's checks — a claim out of processor order, at a
// processor ≥ Procs or at a module ≥ Modules panics — and a round abandoned by
// such a panic leaves neither a claim nor a recorded module behind.
func TestClaimsInPlace(t *testing.T) {
	tracer := obs.NewTracer(8)
	m := newMachine(t, Config{Procs: 4, Modules: 2, Recorder: tracer})
	for name, c := range map[string]struct {
		prev, proc int
		module     int64
	}{
		"repeated":         {1, 1, 0},
		"descending":       {2, 1, 0},
		"processor beyond": {0, 4, 0},
		"module beyond":    {0, 1, 2},
		"negative module":  {0, 1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: claim %+v accepted", name, c)
				}
			}()
			m.OpenRound()
			m.Claim(-1, 0, 1)
			m.Claim(c.prev, c.proc, c.module)
		}()
	}
	m.OpenRound()
	served := 0
	for p, mod := range []int64{0, 0, 1} {
		if m.Claim(p-1, p, mod) != (p != 1) {
			t.Fatalf("claim of processor %d at module %d: wrong grant", p, mod)
		}
		if p != 1 {
			served++
		}
	}
	m.CloseRound(served)
	evs := tracer.Events()
	if len(evs) != 1 || evs[0].Requests != 3 || evs[0].Granted != 2 || evs[0].MaxLoad != 2 || m.Rounds() != 1 {
		t.Fatalf("after the rejected claims: events %+v, %d rounds; want one round of 3 requests, 2 granted, max load 2", evs, m.Rounds())
	}
}
