package mpc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newMachine(t testing.TB, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0, Modules: 4}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := New(Config{Procs: 4, Modules: -1}); err == nil {
		t.Error("negative modules accepted")
	}
	// No processor cap: winner[mod] holds a processor id + 1 in a full
	// word, so 2^24 and beyond (refused while claims were packed into 24
	// bits) construct. New allocates per module, not per processor.
	for _, procs := range []int{1<<24 - 2, 1<<24 - 1, 1 << 24} {
		if m, err := New(Config{Procs: procs, Modules: 1}); err != nil || m.Procs() != procs {
			t.Errorf("Procs=%d: %v", procs, err)
		}
	}
}

// TestOneGrantPerModule: the defining MPC constraint — at most one request
// per module is served, every requested module serves someone, and the one
// it serves is the lowest requesting processor (the rule a remote module
// server applies to the same bids).
func TestOneGrantPerModule(t *testing.T) {
	const procs, modules = 100, 10
	m := newMachine(t, Config{Procs: procs, Modules: modules})
	rng := rand.New(rand.NewSource(1))
	reqs := make([]int64, procs)
	grant := make([]bool, procs)
	for round := 0; round < 50; round++ {
		for p := range reqs {
			if rng.Intn(4) == 0 {
				reqs[p] = Idle
			} else {
				reqs[p] = int64(rng.Intn(modules))
			}
		}
		served := m.Round(reqs, grant)
		lowest := make(map[int64]int) // module -> lowest requesting processor
		for p, mod := range reqs {
			if mod == Idle {
				continue
			}
			if _, ok := lowest[mod]; !ok {
				lowest[mod] = p
			}
		}
		total := 0
		for p, g := range grant {
			if !g {
				continue
			}
			if reqs[p] == Idle {
				t.Fatalf("granted an idle processor %d", p)
			}
			if want := lowest[reqs[p]]; want != p {
				t.Fatalf("round=%d: module %d served processor %d, lowest requester is %d", round, reqs[p], p, want)
			}
			total++
		}
		if total != served || total != len(lowest) {
			t.Fatalf("round=%d: served=%d, %d grants, %d modules requested", round, served, total, len(lowest))
		}
	}
}

// TestLowestArbiterDeterminism: the winner is the smallest requesting
// processor id.
func TestLowestArbiterDeterminism(t *testing.T) {
	m := newMachine(t, Config{Procs: 8, Modules: 2})
	reqs := []int64{1, 1, 0, 1, Idle, 0, 1, Idle}
	grant := make([]bool, 8)
	if served := m.Round(reqs, grant); served != 2 {
		t.Fatalf("served = %d, want 2", served)
	}
	want := []bool{true, false, true, false, false, false, false, false}
	for p := range want {
		if grant[p] != want[p] {
			t.Fatalf("grant[%d] = %v, want %v", p, grant[p], want[p])
		}
	}
}

// TestServedCountProperty: in any round, served == number of distinct
// requested modules (each requested module serves exactly one).
func TestServedCountProperty(t *testing.T) {
	m := newMachine(t, Config{Procs: 32, Modules: 8})
	grant := make([]bool, 32)
	prop := func(raw [32]uint8) bool {
		reqs := make([]int64, 32)
		distinct := make(map[int64]bool)
		for p, r := range raw {
			if r%5 == 0 {
				reqs[p] = Idle
			} else {
				reqs[p] = int64(r) % 8
				distinct[reqs[p]] = true
			}
		}
		return m.Round(reqs, grant) == len(distinct)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoundsCounter(t *testing.T) {
	m := newMachine(t, Config{Procs: 2, Modules: 2})
	reqs := []int64{0, 1}
	grant := make([]bool, 2)
	for i := 0; i < 5; i++ {
		m.Round(reqs, grant)
	}
	if m.Rounds() != 5 {
		t.Fatalf("Rounds() = %d", m.Rounds())
	}
	m.ResetRounds()
	if m.Rounds() != 0 {
		t.Fatal("ResetRounds failed")
	}
}

func TestRoundPanicsOnBadSizes(t *testing.T) {
	m := newMachine(t, Config{Procs: 4, Modules: 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong slice length")
		}
	}()
	m.Round(make([]int64, 3), make([]bool, 4))
}
