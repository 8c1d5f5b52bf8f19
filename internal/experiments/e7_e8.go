package experiments

import (
	"io"
	"math"

	"detshmem/internal/analysis"
	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// e7Instance bundles the schemes under comparison, all sharing the same
// (N, M) geometry so that a batch of variable indices is meaningful under
// every scheme.
type e7Instance struct {
	s   *core.Scheme
	idx core.Indexer
	pp  protocol.Mapper
	mv  *baseline.MV
	si  *baseline.SingleCopy
	sh  *baseline.SingleCopy
	uw  *baseline.UW
	all []protocol.Mapper
}

func newE7Instance(n int) (*e7Instance, error) {
	s, err := core.New(1, n)
	if err != nil {
		return nil, err
	}
	idx, err := s.NewIndexer()
	if err != nil {
		return nil, err
	}
	N, M := s.NumModules, s.NumVariables
	mv, err := baseline.NewMV(N, M, 2)
	if err != nil {
		return nil, err
	}
	si, err := baseline.NewSingleCopy(N, M, baseline.PlaceInterleaved, 0)
	if err != nil {
		return nil, err
	}
	sh, err := baseline.NewSingleCopy(N, M, baseline.PlaceHashed, 12345)
	if err != nil {
		return nil, err
	}
	// UW majority size c ≈ (log₂ N)/2 gives the Θ(log N) redundancy of the
	// existential scheme.
	c := 1
	for (uint64(1) << uint(2*c)) < N {
		c++
	}
	uw, err := baseline.NewUW(N, M, c, 999)
	if err != nil {
		return nil, err
	}
	inst := &e7Instance{s: s, idx: idx, pp: protocol.NewCoreMapper(s, idx), mv: mv, si: si, sh: sh, uw: uw}
	inst.all = []protocol.Mapper{inst.pp, mv, si, sh, uw}
	return inst, nil
}

// E7 compares the constructive scheme against the baselines on random and
// adversarial batches, all under the same MPC accounting. Every row is one
// (workload, operation); every column one scheme; entries are total MPC
// rounds for the batch.
func E7(w io.Writer, o Options) error {
	n := 7
	size := 4096
	if o.Quick {
		n, size = 5, 512
	}
	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	s := inst.s
	if uint64(size) > s.NumModules {
		size = int(s.NumModules)
	}
	rng := o.Rng()

	gamma, err := workload.GammaConcentrated(s, inst.idx, 0, size)
	if err != nil {
		return err
	}
	// Collision batches are clamped by how many variables truly collide
	// (≈ M/N for the single-copy layouts at this memory size), so every row
	// reports its own |batch|.
	collide := int(s.NumVariables / s.NumModules * 4)
	if collide > size {
		collide = size
	}
	rows := []struct {
		name  string
		op    protocol.Op
		batch []uint64
	}{
		{"random", protocol.Read, workload.DistinctRandom(rng, s.NumVariables, size)},
		{"random", protocol.Write, workload.DistinctRandom(rng, s.NumVariables, size)},
		{"stride-N (interleave/digit collide)", protocol.Write, workload.Stride(s.NumVariables, collide, s.NumModules)},
		{"hash-inverted", protocol.Read, inst.sh.WorstBatch(collide)},
		{"digit-grid (MV read adversary)", protocol.Read, inst.mv.WorstReadBatch(size)},
		{"Γ-concentrated", protocol.Read, gamma},
	}

	fprintf(w, "E7  Scheme comparison: total MPC rounds per batch (q=2, n=%d, N=%d, M=%d, |batch|≤%d)\n",
		n, s.NumModules, s.NumVariables, size)
	fprintf(w, "%-38s %-6s %7s", "workload", "op", "|batch|")
	for _, m := range inst.all {
		fprintf(w, " %14s", m.Name())
	}
	fprintf(w, "\n")
	opName := map[protocol.Op]string{protocol.Read: "read", protocol.Write: "write"}
	for _, row := range rows {
		fprintf(w, "%-38s %-6s %7d", row.name, opName[row.op], len(row.batch))
		for _, m := range inst.all {
			sys, err := protocol.NewGenericSystem(m, protocol.Config{})
			if err != nil {
				return err
			}
			reqs := make([]protocol.Request, len(row.batch))
			for i, v := range row.batch {
				reqs[i] = protocol.Request{Var: v, Op: row.op, Value: uint64(i)}
			}
			res, err := sys.Access(reqs)
			if err != nil {
				return err
			}
			fprintf(w, " %14d", res.Metrics.TotalRounds)
		}
		fprintf(w, "\n")
	}
	fprintf(w, "  (copies: pp93=3, mv=2, single=1, uw=%d; uw pays its 2c-1 phases even on\n", inst.uw.Copies())
	fprintf(w, "   random batches; single-copy collapses on its collision batch; pp93 stays\n")
	fprintf(w, "   within its deterministic envelope on every row)\n\n")
	return nil
}

// E8 reproduces Theorem 7: the universal floor (M/N)^{1/r} for r-copy
// schemes, against the congestion a greedy adversary actually extracts from
// each implementation.
func E8(w io.Writer, o Options) error {
	n := 7
	size, pool := 2048, 60000
	if o.Quick {
		n, size, pool = 5, 256, 4000
	}
	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	s := inst.s
	if uint64(size) > s.NumModules {
		size = int(s.NumModules)
	}
	fprintf(w, "E8  Theorem 7: floor (M/N)^{1/r} vs adversary rounds (q=2, n=%d, |batch|≤%d)\n", n, size)
	fprintf(w, "%-18s %6s %10s %14s %16s %14s\n",
		"scheme", "r", "floor", "greedy rounds", "structural rds", "best/floor")
	rng := o.Rng()
	run := func(m protocol.Mapper, batch []uint64, op protocol.Op) (int, error) {
		if len(batch) == 0 {
			return 0, nil
		}
		sys, err := protocol.NewGenericSystem(m, protocol.Config{})
		if err != nil {
			return 0, err
		}
		reqs := make([]protocol.Request, len(batch))
		for i, v := range batch {
			reqs[i] = protocol.Request{Var: v, Op: op, Value: uint64(i)}
		}
		res, err := sys.Access(reqs)
		if err != nil {
			return 0, err
		}
		return res.Metrics.TotalRounds, nil
	}
	for _, m := range inst.all {
		floor := analysis.Theorem7Lower(m.NumVars(), m.NumModules(), m.Copies())
		greedy, err := run(m, analysis.GreedyAdversary(m, size, pool, rng), protocol.Read)
		if err != nil {
			return err
		}
		// Structural adversaries where the scheme's weakness has a closed
		// form (single-copy collision sets; MV's write-all digit stripe).
		structural := 0
		switch sm := m.(type) {
		case *baseline.SingleCopy:
			structural, err = run(m, sm.WorstBatch(size), protocol.Read)
		case *baseline.MV:
			structural, err = run(m, sm.WorstWriteBatch(size), protocol.Write)
		}
		if err != nil {
			return err
		}
		best := greedy
		if structural > best {
			best = structural
		}
		fprintf(w, "%-18s %6d %10.2f %14d %16d %14.2f\n",
			m.Name(), m.Copies(), floor, greedy, structural,
			float64(best)/math.Max(floor, 1))
	}
	fprintf(w, "  (the floor holds for any organization with exactly r copies; both\n")
	fprintf(w, "   adversaries are lower estimates of each scheme's true worst case —\n")
	fprintf(w, "   single-copy and MV-writes are fully exposed by their structural sets,\n")
	fprintf(w, "   while pp93's rounds stay near its N^{1/3}log*N protocol envelope\n")
	fprintf(w, "   rather than growing with the batch size)\n\n")
	return nil
}
