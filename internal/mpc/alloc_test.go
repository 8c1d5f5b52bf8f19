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
	reqs := make([]int64, procs)
	grant := make([]bool, procs)
	for p := range reqs {
		if p%5 == 4 {
			reqs[p] = Idle
		} else {
			reqs[p] = int64(p % modules)
		}
	}
	m.Round(reqs, grant) // warm-up: grows the touched scratch
	if avg := testing.AllocsPerRun(100, func() {
		m.Round(reqs, grant)
	}); avg != 0 {
		t.Fatalf("Round allocates %.2f per call in steady state, want 0", avg)
	}
}
