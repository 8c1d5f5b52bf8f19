// Package experiments regenerates every analytical claim of the paper as a
// measured table (the paper's "evaluation" is its theorems; it has no
// numeric tables or data figures, so each experiment E1–E10 below pairs a
// theorem with the measurement that reproduces its shape). The per-
// experiment index lives in DESIGN.md; paper-vs-measured results are
// recorded in EXPERIMENTS.md.
//
// Experiments print self-contained tables to an io.Writer so that both
// cmd/smembench and the tests can drive them. Of the serving-stack
// experiments only E17 remains, gating the round trace against the
// protocol's metrics; what the serving stack costs is timed by the bench/
// suite alone, and the process-level fault drills are cmd/netcluster's.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"detshmem/internal/core"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// Options tunes experiment scale.
type Options struct {
	Quick bool  // shrink sweeps for fast runs
	Seed  int64 // randomness seed (workloads only; schemes are deterministic)
	// Recorder, when non-nil, is installed on every protocol system built
	// through the shared constructor, capturing one event per MPC round
	// (smembench -trace wires a ring-buffer tracer here).
	Recorder obs.Recorder
	// Observer, when non-nil, receives per-batch protocol metrics from the
	// same systems (smembench wires its cumulative collector here).
	Observer obs.BatchObserver
}

// instrument applies the Options' observability hooks to a protocol config,
// keeping any hooks the experiment set explicitly.
func (o Options) instrument(cfg protocol.Config) protocol.Config {
	if cfg.Recorder == nil {
		cfg.Recorder = o.Recorder
	}
	if cfg.Observer == nil {
		cfg.Observer = o.Observer
	}
	return cfg
}

// Rng returns the experiment RNG.
func (o Options) Rng() *rand.Rand {
	seed := o.Seed
	if seed == 0 {
		seed = 1993 // SPAA'93
	}
	return rand.New(rand.NewSource(seed))
}

// Degrees returns the extension-degree sweep for q=2 instances.
func (o Options) Degrees() []int {
	if o.Quick {
		return []int{3, 5}
	}
	return []int{3, 5, 7, 9}
}

// Runner is one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options) error
}

// All lists the experiments in order.
func All() []Runner {
	return []Runner{
		{"e1", "Fact 1: graph parameters", E1},
		{"e2", "Theorem 2: pairwise variable intersections", E2},
		{"e3", "Theorem 3: Γ² module intersections", E3},
		{"e4", "Theorem 4: expansion |Γ(S)| vs |S|^{2/3}q/2^{1/3}", E4},
		{"e5", "Recurrence (2): live-variable decay envelope", E5},
		{"e6", "Theorems 1/6: Φ and total time scaling", E6},
		{"e7", "Comparative: PP93 vs MV / single-copy / UW", E7},
		{"e8", "Theorem 7: lower-bound floor vs greedy adversary", E8},
		{"e9", "Theorem 8 / §4: address-computation cost", E9},
		{"e10", "Application: PRAM algorithms on the scheme", E10},
		{"e11", "Extension: fault tolerance of the majority rule", E11},
		{"e12", "Extension: protocol over a butterfly network", E12},
		{"e13", "Extension: Θ(N^{1.5-ε}) vs Θ(N²) regime comparison", E13},
		{"e14", "Extension: structural audit of every organization", E14},
		{"e17", "Observability: round trajectory, contention, Theorem 6 shape", E17},
	}
}

// newSystem builds a PP93 protocol system for q=2^m, degree n, with the
// Options' observability hooks installed.
func newSystem(o Options, m, n int, cfg protocol.Config) (*protocol.System, error) {
	s, err := core.New(m, n)
	if err != nil {
		return nil, err
	}
	idx, err := s.NewIndexer()
	if err != nil {
		return nil, err
	}
	return protocol.NewSystem(s, idx, o.instrument(cfg))
}

// gammaSet computes |Γ(S)| for variables given by indices.
func gammaSet(s *core.Scheme, idx core.Indexer, vars []uint64) int {
	mods := make(map[uint64]struct{})
	var buf []uint64
	for _, v := range vars {
		buf = s.VarModules(buf[:0], idx.Mat(v))
		for _, j := range buf {
			mods[j] = struct{}{}
		}
	}
	return len(mods)
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
