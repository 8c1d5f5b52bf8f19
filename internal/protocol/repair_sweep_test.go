package protocol

import (
	"errors"
	"slices"
	"testing"

	"detshmem/internal/cellstore"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// sweepScheme is the q=2, n=5 scheme the sweep tests run on: 5456 variables
// over 1023 modules, so a sweep spans several chunks and default-budget
// steps.
func sweepScheme(t testing.TB) (*core.Scheme, core.Indexer) {
	t.Helper()
	s, err := core.New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	return s, idx
}

// repairCycle scripts one fault cycle on sys with no concurrency anywhere:
// write every variable, fail a contiguous quarter of the modules, overwrite
// every third variable (those that lost their majority are refused), re-admit
// the range through the repair queue and drain it with RepairStep.
func repairCycle(t testing.TB, sys *System, fs *mpc.FaultSet) {
	t.Helper()
	n, nv := sys.Mapper.NumModules(), sys.Mapper.NumVars()
	write := func(stride, bias uint64) {
		vars := make([]uint64, 0, n)
		vals := make([]uint64, 0, n)
		flush := func() {
			if _, err := sys.WriteBatch(vars, vals); err != nil && !errors.Is(err, ErrQuorumUnreachable) {
				t.Fatal(err)
			}
			vars, vals = vars[:0], vals[:0]
		}
		for v := uint64(0); v < nv; v += stride {
			vars, vals = append(vars, v), append(vals, v+bias)
			if uint64(len(vars)) == n {
				flush()
			}
		}
		flush()
	}
	write(1, 1)
	lo, hi := n/2, n/2+n/4
	if got := fs.FailRange(lo, hi); got != int(hi-lo) {
		t.Fatalf("FailRange(%d, %d) = %d", lo, hi, got)
	}
	write(3, 1_000_000)
	if got := fs.RecoverPendingRange(lo, hi); got != int(hi-lo) {
		t.Fatalf("RecoverPendingRange(%d, %d) = %d", lo, hi, got)
	}
	for i := 0; sys.RepairBacklog() > 0; i++ {
		if !sys.RepairStep() || i > 1_000_000 {
			t.Fatalf("repair stalled with backlog %d after %d steps", sys.RepairBacklog(), i)
		}
	}
}

// TestRepairDifferentialResolvers: the sweep resolves through whatever
// resolver the System serves traffic from, so one scripted cycle must leave
// byte-identical stores and identical repair books on every resolution path
// — and a budget spanning several resolution chunks must rebuild the same
// copies as the default one.
func TestRepairDifferentialResolvers(t *testing.T) {
	s, idx := sweepScheme(t)
	live := NewCoreMapper(s, idx)
	table, err := CompileMapper(live, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		cells                     []cellstore.Cell
		copies, rounds, certified int64
	}
	run := func(m Mapper, cfg Config, budget int) outcome {
		fs := mpc.NewFaultSet()
		col := obs.NewCollector()
		cfg.Observer = col
		cfg.NewMachine = func(mcfg mpc.Config) (Machine, error) { return mpc.NewFailingShared(mcfg, fs) }
		sys, err := NewGenericSystem(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.repairBudget = budget
		repairCycle(t, sys, fs)
		out := outcome{
			copies:    col.RepairedCopies.Load(),
			rounds:    col.RepairRounds.Load(),
			certified: col.RepairCertified.Load(),
		}
		for a := uint64(0); a < m.AddrSpace(); a++ {
			out.cells = append(out.cells, sys.cells().Get(a))
		}
		return out
	}
	want := run(live, Config{}, DefaultRepairBudget)
	if want.copies == 0 || want.certified != int64(s.NumModules/4) {
		t.Fatalf("live cycle rebuilt %d copies and certified %d modules; the script is not exercising repair", want.copies, want.certified)
	}
	for _, tc := range []struct {
		name string
		m    Mapper
		cfg  Config
	}{
		{"compiled", live, Config{Resolver: table}},
		{"computed", table, Config{Strategy: ResolverComputed}},
	} {
		got := run(tc.m, tc.cfg, DefaultRepairBudget)
		if got.copies != want.copies || got.rounds != want.rounds || got.certified != want.certified {
			t.Errorf("%s: repaired %d copies in %d rounds, certified %d; live did %d, %d, %d",
				tc.name, got.copies, got.rounds, got.certified, want.copies, want.rounds, want.certified)
		}
		if !slices.Equal(got.cells, want.cells) {
			t.Errorf("%s: store differs from the live resolver's after the cycle", tc.name)
		}
	}
	wide := run(live, Config{Resolver: table}, 4*repairChunkVars)
	if wide.copies != want.copies || wide.certified != want.certified || !slices.Equal(wide.cells, want.cells) {
		t.Errorf("budget of %d: repaired %d copies, certified %d (default budget: %d, %d), stores equal %v",
			4*repairChunkVars, wide.copies, wide.certified, want.copies, want.certified, slices.Equal(wide.cells, want.cells))
	}
}

// TestColdRepairSweepPlaysFullWaves: a sweep on a System that has served no
// batch builds its machine with room for a full wave, so it plays about the
// rounds the same sweep plays after a 512-request batch sized the machine,
// not one variable per wave. The scheme is q=2 n=5 with a quarter of the
// modules re-admitted through repair.
func TestColdRepairSweepPlaysFullWaves(t *testing.T) {
	s, idx := sweepScheme(t)
	m := NewCoreMapper(s, idx)
	sweep := func(warm bool) int64 {
		fs := mpc.NewFaultSet()
		col := obs.NewCollector()
		sys, err := NewGenericSystem(m, Config{
			Observer:   col,
			NewMachine: func(mcfg mpc.Config) (Machine, error) { return mpc.NewFailingShared(mcfg, fs) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if warm {
			vars := make([]uint64, 512)
			for i := range vars {
				vars[i] = uint64(i) * 7
			}
			if _, _, err := sys.ReadBatch(vars); err != nil {
				t.Fatal(err)
			}
		}
		n := m.NumModules()
		fs.FailRange(n/2, n/2+n/4)
		fs.RecoverPendingRange(n/2, n/2+n/4)
		// A cold System has no machine, so its RepairBacklog reads 0 until
		// the first step builds one.
		for i := 0; i == 0 || sys.RepairBacklog() > 0; i++ {
			if !sys.RepairStep() || i > 1_000_000 {
				t.Fatalf("repair stalled with backlog %d after %d steps", sys.RepairBacklog(), i)
			}
		}
		return col.RepairRounds.Load()
	}
	warm, cold := sweep(true), sweep(false)
	if warm == 0 || 2*cold > 3*warm {
		t.Fatalf("the cold sweep played %d repair rounds, the warmed one %d; want at most 1.5×", cold, warm)
	}
}
