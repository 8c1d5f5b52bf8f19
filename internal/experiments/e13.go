package experiments

import (
	"io"
	"math"

	"detshmem/internal/affine"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// E13 contrasts the paper's M ∈ Θ(N^{1.5−ε}) / O(N^{1/3}log*N) regime with
// the companion M ∈ Θ(N²) / O(√N) regime it cites as prior work
// (reconstructed in internal/affine via parallel classes of AG(2,p)): for
// comparable N, the affine plane stores ~N²/r² variables but pays √N'-shaped
// batch times, while the PGL₂ scheme stores ~N^{1.4} and stays on its
// N'^{1/3} envelope — the memory-capacity/access-time tradeoff the paper's
// introduction frames.
func E13(w io.Writer, o Options) error {
	type row struct {
		name   string
		m      protocol.Mapper
		sweeps []int
	}
	var rows []row

	ppN := 7
	if o.Quick {
		ppN = 5
	}
	sys, err := newSystem(o, 1, ppN, protocol.Config{})
	if err != nil {
		return err
	}
	rows = append(rows, row{"pgl2 (paper)", sys.Mapper, nil})

	// An affine plane with N in the same ballpark as the PGL₂ instance.
	p := uint64(337) // 3·337 = 1011 ≈ 1023
	if !o.Quick {
		p = 5449 // 3·5449 = 16347 ≈ 16383
	}
	plane, err := affine.New(p, 3)
	if err != nil {
		return err
	}
	rows = append(rows, row{"affine (companion)", plane, nil})

	fprintf(w, "E13 Regime comparison: Θ(N^{1.5-ε})@N'^{1/3} vs Θ(N²)@√N' (3 copies each)\n")
	fprintf(w, "%-20s %10s %12s %8s %7s %8s %14s %12s\n",
		"scheme", "N", "M", "N'", "phases", "Φ", "Φ/(N')^{1/3}", "Φ/√N'")
	rng := o.Rng()
	for _, r := range rows {
		gsys, err := protocol.NewGenericSystem(r.m, protocol.Config{})
		if err != nil {
			return err
		}
		N := int(r.m.NumModules())
		for np := 64; np <= N; np *= 4 {
			vars := workload.DistinctRandom(rng, r.m.NumVars(), np)
			vals := make([]uint64, len(vars))
			met, err := gsys.WriteBatch(vars, vals)
			if err != nil {
				return err
			}
			fprintf(w, "%-20s %10d %12d %8d %7d %8d %14.3f %12.3f\n",
				r.name, r.m.NumModules(), r.m.NumVars(), np, met.Phases, met.MaxIterations,
				float64(met.MaxIterations)/math.Cbrt(float64(np)),
				float64(met.MaxIterations)/math.Sqrt(float64(np)))
		}
	}
	// Adversarial batches: the regimes separate here. The affine plane's
	// grid sets congest every parallel class simultaneously (its √N' bound
	// is tight on them); the PGL₂ scheme's densest locality sets
	// (Γ-concentrated) still leave quorums room to dodge, so Φ stays small.
	fprintf(w, "\n    adversarial batches\n")
	fprintf(w, "%-20s %8s %8s %14s %12s\n", "scheme", "N'", "Φ", "Φ/(N')^{1/3}", "Φ/√N'")
	npc := 256
	if !o.Quick {
		npc = 4096
	}
	gamma, err := workload.GammaConcentrated(sys.Scheme, sys.Index, 0, npc)
	if err != nil {
		return err
	}
	for _, r := range []struct {
		name  string
		m     protocol.Mapper
		batch []uint64
	}{
		{"pgl2 (paper, Γ-conc)", sys.Mapper, gamma},
		{"affine (grid)", plane, plane.WorstBatch(npc)},
	} {
		gsys, err := protocol.NewGenericSystem(r.m, protocol.Config{})
		if err != nil {
			return err
		}
		vals := make([]uint64, len(r.batch))
		met, err := gsys.WriteBatch(r.batch, vals)
		if err != nil {
			return err
		}
		np := len(r.batch)
		fprintf(w, "%-20s %8d %8d %14.3f %12.3f\n",
			r.name, np, met.MaxIterations,
			float64(met.MaxIterations)/math.Cbrt(float64(np)),
			float64(met.MaxIterations)/math.Sqrt(float64(np)))
	}
	fprintf(w, "  (both schemes use 3 copies and 2-of-3 majorities; the affine plane buys\n")
	fprintf(w, "   ~N²/9 addressable variables at a √N'-shaped access envelope, the PGL₂\n")
	fprintf(w, "   scheme keeps N'^{1/3}log*N' at the paper's smaller memory size)\n\n")
	return nil
}
