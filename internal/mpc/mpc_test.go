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
}

// TestOneGrantPerModule: the defining MPC constraint, for every arbiter — at
// most one request per module is served, every requested module serves
// someone, and the one it serves holds the minimum claim among the module's
// requesters (the rule a remote module server applies to the same claims).
func TestOneGrantPerModule(t *testing.T) {
	const procs, modules = 100, 10
	for _, arb := range []Arbiter{ArbLowest, ArbRoundRobin, ArbRandom} {
		m := newMachine(t, Config{Procs: procs, Modules: modules, Arb: arb, Seed: 99})
		rng := rand.New(rand.NewSource(1))
		reqs := make([]int64, procs)
		grant := make([]bool, procs)
		for round := uint64(0); round < 50; round++ {
			for p := range reqs {
				if rng.Intn(4) == 0 {
					reqs[p] = Idle
				} else {
					reqs[p] = int64(rng.Intn(modules))
				}
			}
			served := m.Round(reqs, grant)
			best := make(map[int64]uint64) // module -> minimum claim received
			for p, mod := range reqs {
				if mod == Idle {
					continue
				}
				if c := Claim(arb, procs, 99, round, p); best[mod] == 0 || c < best[mod] {
					best[mod] = c
				}
			}
			total := 0
			for p, g := range grant {
				if !g {
					continue
				}
				if reqs[p] == Idle {
					t.Fatalf("arb=%v: granted an idle processor %d", arb, p)
				}
				if want := ClaimProc(best[reqs[p]]); want != p {
					t.Fatalf("arb=%v round=%d: module %d served processor %d, minimum claim is processor %d's",
						arb, round, reqs[p], p, want)
				}
				total++
			}
			if total != served || total != len(best) {
				t.Fatalf("arb=%v round=%d: served=%d, %d grants, %d modules requested", arb, round, served, total, len(best))
			}
		}
	}
}

// TestLowestArbiterDeterminism: with ArbLowest the winner is the smallest
// requesting processor id.
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

// TestRoundRobinRotates: under ArbRoundRobin a fixed conflicting request set
// eventually grants different processors across rounds.
func TestRoundRobinRotates(t *testing.T) {
	m := newMachine(t, Config{Procs: 4, Modules: 1, Arb: ArbRoundRobin})
	reqs := []int64{0, 0, 0, 0}
	grant := make([]bool, 4)
	winners := make(map[int]bool)
	for round := 0; round < 16; round++ {
		m.Round(reqs, grant)
		for p, g := range grant {
			if g {
				winners[p] = true
			}
		}
	}
	if len(winners) < 2 {
		t.Fatalf("round-robin never rotated winners: %v", winners)
	}
}

// TestRandomArbiterSeedStability: same seed → same grants; different seed →
// (almost surely) different grant sequence.
func TestRandomArbiterSeedStability(t *testing.T) {
	run := func(seed uint64) []bool {
		m := newMachine(t, Config{Procs: 64, Modules: 4, Arb: ArbRandom, Seed: seed})
		reqs := make([]int64, 64)
		for p := range reqs {
			reqs[p] = int64(p % 4)
		}
		grant := make([]bool, 64)
		var hist []bool
		for round := 0; round < 20; round++ {
			m.Round(reqs, grant)
			hist = append(hist, append([]bool(nil), grant...)...)
		}
		return hist
	}
	a, b, c := run(7), run(7), run(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed produced different histories")
	}
	if same(a, c) {
		t.Error("different seeds produced identical histories (suspicious)")
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
