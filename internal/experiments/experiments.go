// Package experiments regenerates every analytical claim of the paper as a
// measured table (the paper's "evaluation" is its theorems; it has no
// numeric tables or data figures, so each experiment E1–E10 below pairs a
// theorem with the measurement that reproduces its shape). The per-
// experiment index lives in DESIGN.md; paper-vs-measured results are
// recorded in EXPERIMENTS.md.
//
// Experiments print self-contained tables to an io.Writer so that both
// cmd/smembench and the tests can drive them. Of the serving-stack
// experiments, E17 gates the round trace against the protocol's metrics and
// E19, E20, E22 and E24 are fault, consistency and cluster drills that gate on
// correctness (one closed client loop, drive.go); what the serving stack
// costs is timed by the bench/ suite alone.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"detshmem/internal/consistency"
	"detshmem/internal/core"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// Options tunes experiment scale.
type Options struct {
	Quick bool  // shrink sweeps for fast runs
	Seed  int64 // randomness seed (workloads only; schemes are deterministic)
	// Faults, when > 0, pins E19's failed-module sweep to {0, Faults}
	// instead of the full fault-count ladder, which 0 runs (smembench
	// -faults). Validate rejects negative values.
	Faults int
	// FaultSched selects E19's dynamic fault schedule: "" runs only the
	// static fault sets; "churn" adds cells where one module at a time
	// fails and recovers in the background while clients stream
	// (smembench -faultsched). Validate rejects anything else.
	FaultSched string
	// Consistency, when non-nil, receives E20's recorded client traces —
	// per-client streams of value-carrying operations, one Run per measured
	// cell with the service's declared contract (smembench -trace embeds the
	// resulting TraceSet in its dump for cmd/consistencycheck).
	Consistency *consistency.Recorder
	// Transport selects the MPC transport for transport-aware experiments
	// (E22, E24): "" runs every cell (in-process and loopback TCP), "inproc"
	// restricts to the in-process cells, "tcp" to the networked cells
	// (smembench -transport). Validate rejects anything else.
	Transport string
	// Servers lists external memserver addresses for the TCP cells of E22
	// and E24; empty means they launch their own in-process loopback cluster.
	// With external servers the kill and drill cells expect the harness
	// (cmd/netcluster) to kill one server when the marker line appears
	// (smembench -servers).
	Servers []string
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

// Validate rejects the option values that would otherwise select no cell at
// all: E22 and E24 run the cells Transport names, so an unknown transport —
// or external servers with the TCP cells switched off — is a run that prints
// its headers, measures nothing and exits 0. The same goes for E19's knobs:
// a misspelt fault schedule adds no cell and a negative fault count pins
// nothing, so both would pass for the default run.
func (o Options) Validate() error {
	switch o.FaultSched {
	case "", "churn":
	default:
		return fmt.Errorf("unknown fault schedule %q; known schedules: churn", o.FaultSched)
	}
	if o.Faults < 0 {
		return fmt.Errorf("negative fault count %d; 0 runs the full ladder", o.Faults)
	}
	switch o.Transport {
	case "", "inproc", "tcp":
	default:
		return fmt.Errorf("unknown transport %q; known transports: inproc, tcp", o.Transport)
	}
	if len(o.Servers) > 0 && o.Transport == "inproc" {
		return fmt.Errorf("external servers %v serve the TCP cells, which transport %q switches off", o.Servers, o.Transport)
	}
	return nil
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
		{"e19", "Fault tolerance: throughput and round inflation vs failed modules", E19},
		{"e20", "Consistency auditing: trace-checker cost and sampling-audit overhead", E20},
		{"e22", "Networked MPC: in-process vs loopback-TCP vs TCP with a killed server", E22},
		{"e24", "Self-healing repair: churn with repair on/off, wipe-restart drill over TCP", E24},
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
