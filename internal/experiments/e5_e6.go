package experiments

import (
	"io"
	"math"

	"detshmem/internal/analysis"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// E5 reproduces Recurrence (2): it runs a full-N batch with live tracing and
// prints the measured live-variable counts per iteration of the worst phase
// next to the analytical envelope R_{k+1} = R_k(1 − c(q/R_k)^{1/3}),
// c ≈ 0.397, started from the same R_0.
func E5(w io.Writer, o Options) error {
	n := 7
	if o.Quick {
		n = 5
	}
	sys, err := newSystem(o, 1, n, protocol.Config{TraceLive: true})
	if err != nil {
		return err
	}
	s := sys.Scheme
	N := int(s.NumModules)
	fprintf(w, "E5  Recurrence (2): live variables per iteration (q=%d, n=%d, N=%d)\n", s.Q, n, N)

	batches := []struct {
		label string
		vars  []uint64
	}{
		{"random", workload.DistinctRandom(o.Rng(), sys.Index.M(), N)},
	}
	gamma, err := workload.GammaConcentrated(s, sys.Index, 0, N)
	if err != nil {
		return err
	}
	batches = append(batches, struct {
		label string
		vars  []uint64
	}{"Γ-concentrated", gamma})

	for _, batch := range batches {
		vals := make([]uint64, len(batch.vars))
		met, err := sys.WriteBatch(batch.vars, vals)
		if err != nil {
			return err
		}
		// Pick the phase with the most iterations.
		worst := 0
		for p, it := range met.PhaseIterations {
			if it > met.PhaseIterations[worst] {
				worst = p
			}
		}
		trace := met.LiveTrace[worst]
		r0 := float64(len(batch.vars)) / float64(s.Copies) // clusters per phase
		env := analysis.RecurrenceEnvelope(r0, s.Q, 10*len(trace)+10)
		fprintf(w, "\n  batch=%s (worst phase %d)\n", batch.label, worst)
		fprintf(w, "%6s %12s %14s\n", "iter", "measured R_k", "envelope bound")
		step := 1 + len(trace)/24
		for k := 0; k < len(trace); k += step {
			bound := 0.0
			if k+1 < len(env) {
				bound = env[k+1]
			}
			fprintf(w, "%6d %12d %14.1f\n", k+1, trace[k], bound)
		}
		fprintf(w, "%6s measured iterations: %d; envelope iterations: %d\n",
			"", len(trace), analysis.RecurrenceIterations(r0, s.Q, 1<<20))
	}
	fprintf(w, "  (measured decay must stay at or below the envelope's shape;\n")
	fprintf(w, "   the envelope is a worst-case ceiling, so measured << envelope is expected)\n\n")
	return nil
}

// E6 reproduces Theorem 6 / Theorem 1: Φ for full batches across n, with the
// normalizations Φ/N^{1/3} and Φ/(N^{1/3} log* N) that must stay bounded,
// plus an N' sweep at fixed n showing the O((N')^{1/3} log* N') regime.
func E6(w io.Writer, o Options) error {
	fprintf(w, "E6  Theorem 6: Φ scaling for full batches (q=2; the time-model column is\n")
	fprintf(w, "    the paper's §3 total q(Φ·log q + log N), constants ours)\n")
	fprintf(w, "%3s %10s %8s %8s %12s %16s %12s %10s\n",
		"n", "N", "Φ", "rounds", "Φ/N^{1/3}", "Φ/(N^{1/3}log*N)", "bound-shape", "time-model")
	for _, n := range o.Degrees() {
		sys, err := newSystem(o, 1, n, protocol.Config{})
		if err != nil {
			return err
		}
		N := int(sys.Scheme.NumModules)
		vars := workload.DistinctRandom(o.Rng(), sys.Index.M(), N)
		vals := make([]uint64, N)
		met, err := sys.WriteBatch(vars, vals)
		if err != nil {
			return err
		}
		cbrt := math.Cbrt(float64(N))
		ls := float64(analysis.LogStar(float64(N)))
		fprintf(w, "%3d %10d %8d %8d %12.3f %16.3f %12.1f %10.1f\n",
			n, N, met.MaxIterations, met.TotalRounds,
			float64(met.MaxIterations)/cbrt,
			float64(met.MaxIterations)/(cbrt*ls),
			analysis.Theorem6Bound(uint64(N)),
			analysis.MPCTimeModel(sys.Scheme.Q, met.MaxIterations, uint64(N)))
	}

	// The general-q path: q = 4 (five copies, majority 3) through the
	// enumerated indexer.
	if !o.Quick {
		fprintf(w, "\n    q=4 instances (general-q protocol path, enumerated indexing)\n")
		for _, n := range []int{3, 4} {
			sys, err := newSystem(o, 2, n, protocol.Config{})
			if err != nil {
				return err
			}
			N := int(sys.Scheme.NumModules)
			vars := workload.DistinctRandom(o.Rng(), sys.Index.M(), N)
			vals := make([]uint64, N)
			met, err := sys.WriteBatch(vars, vals)
			if err != nil {
				return err
			}
			fprintf(w, "%3d %10d %8d %8d %12.3f\n",
				n, N, met.MaxIterations, met.TotalRounds,
				float64(met.MaxIterations)/math.Cbrt(float64(N)))
		}
	}

	nFix := 7
	if o.Quick {
		nFix = 5
	}
	sys, err := newSystem(o, 1, nFix, protocol.Config{})
	if err != nil {
		return err
	}
	N := int(sys.Scheme.NumModules)
	fprintf(w, "\n    N' sweep at n=%d (N=%d): total time O((N')^{1/3}log*N' + log N); a batch\n", nFix, N)
	fprintf(w, "    of N' ≤ N/(q+1)³ is one phase over all N' variables, the set Theorem 6 bounds\n")
	fprintf(w, "%10s %7s %8s %8s %14s %16s\n", "N'", "phases", "Φ", "rounds", "Φ/(N')^{1/3}", "N'^{1/3}log*N'")
	rng := o.Rng()
	for np := 64; np <= N; np *= 4 {
		vars := workload.DistinctRandom(rng, sys.Index.M(), np)
		vals := make([]uint64, len(vars))
		met, err := sys.WriteBatch(vars, vals)
		if err != nil {
			return err
		}
		fprintf(w, "%10d %7d %8d %8d %14.3f %16.1f\n",
			np, met.Phases, met.MaxIterations, met.TotalRounds,
			float64(met.MaxIterations)/math.Cbrt(float64(np)),
			analysis.Theorem6Bound(uint64(np)))
	}
	fprintf(w, "\n")
	return nil
}
