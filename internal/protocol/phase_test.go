package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// TestPhaseCount pins the phase rule: a batch of n requests plays the fewest
// phases whose bids each fit in N/(q+1)² modules — ⌈n / ⌊N/(q+1)³⌋⌉ — and at
// most q+1. Each size runs a write/read script under every fault scenario of
// the digest matrix and the carried one (carriedScript), and every request a
// quorum served must agree with an oracle map.
func TestPhaseCount(t *testing.T) {
	for _, sc := range []struct{ m, n int }{{1, 5}, {1, 7}, {2, 3}} {
		s, err := core.New(sc.m, sc.n)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := s.NewIndexer()
		if err != nil {
			t.Fatal(err)
		}
		m := NewCoreMapper(s, idx)
		q, N := int(s.Q), int(m.NumModules())
		d := N / ((q + 1) * (q + 1) * (q + 1))
		for _, c := range []struct{ size, want int }{
			{1, 1}, {d, 1}, {d + 1, 2}, {q * d, q}, {q*d + 1, q + 1}, {N, q + 1},
		} {
			for _, scenario := range append(slices.Clip(digestScenarios), "carried") {
				t.Run(fmt.Sprintf("q=%d,n=%d/size=%d/%s", q, sc.n, c.size, scenario), func(t *testing.T) {
					phaseScript(t, m, scenario, c.size, c.want)
				})
			}
		}
	}
}

// carriedScript sets the carried scenario up on cfg: over a bare mpc.Failing,
// whose phases open in place (firstRound), a contiguous range of N/4 modules
// and the module of one bid still in flight fail right after the stream's
// first round — the first batch's phase 0, so when that batch plays several
// phases the failure lands between phase 0 and phase 1, while phase 0's
// stragglers are being carried into phase 1 — and come back for repair before
// batch 2. *sys is the System the config is for.
func carriedScript(m Mapper, cfg *Config, sys **System) func(i int) {
	n := m.NumModules()
	lo, hi := n/2, n/2+max(1, n/4)
	fs := mpc.NewFaultSet()
	hit, carried := uint64(0), false
	rounds := 0
	cfg.Recorder = recordFunc(func() {
		if rounds++; rounds != 1 {
			return
		}
		fs.FailRange(lo, hi)
		if tasks := (*sys).tasks; len(tasks) > 0 {
			hit, carried = uint64(tasks[0].cp.module()), true
			fs.Fail(hit)
		}
	})
	cfg.NewMachine = func(mcfg mpc.Config) (Machine, error) { return mpc.NewFailingShared(mcfg, fs) }
	return func(i int) {
		if i == 2 {
			fs.RecoverPendingRange(lo, hi)
			if carried {
				fs.RecoverPending(hit)
			}
		}
	}
}

// recordFunc is an obs.Recorder that calls itself after every round.
type recordFunc func()

func (f recordFunc) Enabled() bool              { return true }
func (f recordFunc) RecordRound(obs.RoundEvent) { f() }

// phaseScript writes fresh values to size distinct variables and reads them
// back, three times over, under one fault scenario; then it lets repair drain
// and reads them once more. Every batch must play want phases. A write left
// unfinished may have reached some copies, so its variable is unchecked until
// the next committed write.
func phaseScript(t *testing.T, m Mapper, scenario string, size, want int) {
	rng := rand.New(rand.NewSource(int64(size)))
	vars := make([]uint64, 0, size)
	owned := make(map[uint64]bool, size)
	for len(vars) < size {
		if v := rng.Uint64() % m.NumVars(); !owned[v] {
			owned[v] = true
			vars = append(vars, v)
		}
	}
	batches := make([][]Request, 6)
	for i := range batches {
		batches[i] = make([]Request, size)
		for j, v := range vars {
			batches[i][j] = Request{Var: v}
			if i%2 == 0 {
				batches[i][j] = Request{Var: v, Op: Write, Value: uint64(i+1)<<32 | uint64(j)}
			}
		}
	}
	cfg := Config{TraceLive: true, Owns: func(v uint64) bool { return owned[v] }}
	var sys *System
	var before func(int)
	if scenario == "carried" {
		before = carriedScript(m, &cfg, &sys)
	} else {
		before = faultScript(m, scenario, batches, rng, &cfg)
	}
	sys, err := NewGenericSystem(m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	oracle := make(map[uint64]uint64, size) // committed value of every checked variable
	for _, v := range vars {
		oracle[v] = 0
	}
	checked := 0
	var res Result
	access := func(i int, reqs []Request) {
		err := sys.AccessInto(reqs, &res)
		if err != nil && !errors.Is(err, ErrIncomplete) {
			t.Fatalf("batch %d: %v", i, err)
		}
		met := &res.Metrics
		if met.Phases != want || len(met.PhaseIterations) != want || len(met.LiveTrace) != want {
			t.Fatalf("batch %d of %d requests: %d phases (%d iteration counts, %d live traces), want %d",
				i, size, met.Phases, len(met.PhaseIterations), len(met.LiveTrace), want)
		}
		for p, live := range met.LiveTrace {
			if inPhase := (size - p + want - 1) / want; len(live) > 0 && live[0] > inPhase {
				t.Fatalf("batch %d phase %d: %d live requests of the phase's %d", i, p, live[0], inPhase)
			}
		}
		unfinished := make(map[int]bool, len(met.Unfinished))
		for _, r := range met.Unfinished {
			unfinished[r] = true
		}
		for j, rq := range reqs {
			cur, known := oracle[rq.Var]
			switch {
			case unfinished[j] && rq.Op == Write:
				delete(oracle, rq.Var)
			case unfinished[j]:
			case rq.Op == Write:
				oracle[rq.Var] = rq.Value
			case known:
				checked++
				if res.Values[j] != cur {
					t.Fatalf("batch %d: var %d read %d, oracle holds %d", i, rq.Var, res.Values[j], cur)
				}
			}
		}
	}
	for i, reqs := range batches {
		before(i)
		access(i, reqs)
	}
	// The flip script may end with a copy still failed, so repair may stop
	// short of certifying everything; the final read then refuses what it
	// cannot serve.
	for steps := 0; sys.RepairBacklog() > 0 && steps < 10_000 && sys.RepairStep(); steps++ {
	}
	access(len(batches), batches[1])
	// At size 1 the static and flip scripts aim every fault at the one
	// variable, which may then serve nothing; every other cell checks reads.
	if checked == 0 && (size > 1 || scenario == "healthy" || scenario == "repairing") {
		t.Fatal("no read was checked against the oracle")
	}
}
