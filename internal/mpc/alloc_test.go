package mpc

import (
	"testing"

	"detshmem/internal/obs"
)

// TestRoundSteadyStateAllocsSequential pins a round's steady state at zero
// allocations, with enough processors and modules that claims genuinely
// contend. The default no-op recorder is installed explicitly: the guarantee
// must hold with the instrumentation layer wired in.
func TestRoundSteadyStateAllocsSequential(t *testing.T) {
	const procs, modules = 96, 32
	m, err := New(Config{Procs: procs, Modules: modules, Recorder: obs.Nop})
	if err != nil {
		t.Fatal(err)
	}
	var bids []int64
	for p := 0; p < procs; p++ {
		if p%5 != 4 {
			bids = append(bids, Bid(p, int64(p%modules)))
		}
	}
	grant := make([]bool, len(bids))
	m.Round(bids, grant)
	if avg := testing.AllocsPerRun(100, func() {
		m.Round(bids, grant)
	}); avg != 0 {
		t.Fatalf("Round allocates %.2f per call in steady state, want 0", avg)
	}
}
