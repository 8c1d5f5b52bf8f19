package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/workload"
)

// sharedFaultSystem builds a PP93 system whose interconnect consults the
// given runtime fault set.
func sharedFaultSystem(t testing.TB, s *core.Scheme, idx core.Indexer, fs *mpc.FaultSet, cfg Config) *System {
	t.Helper()
	cfg.NewMachine = func(mcfg mpc.Config) (Machine, error) { return mpc.NewFailingShared(mcfg, fs) }
	sys, err := NewSystem(s, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDynamicFaultLifecycle drives one System through the full runtime
// fault story: healthy writes, reads that mask a single live failure by
// re-selecting their quorum over survivors, a quorum loss that strands
// exactly the victim while the rest of the batch commits (per-request
// attribution at the protocol layer), and recovery that makes the next
// batch whole again — all without rebuilding the system.
func TestDynamicFaultLifecycle(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fs := mpc.NewFaultSet()
	sys := sharedFaultSystem(t, s, idx, fs, Config{})

	n := int(s.NumModules)
	vars := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range vars {
		vars[i] = uint64(i)
		vals[i] = uint64(i + 100)
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	// One failed module: every variable keeps a live majority (q = 2, three
	// copies in three distinct modules), so reads re-select and succeed.
	victim := uint64(10)
	vmods := s.VarModules(nil, idx.Mat(victim))
	fs.Fail(vmods[0])
	got, met, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatalf("read under one failure: %v (unfinished %v)", err, met.Unfinished)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("read under one failure: var %d = %d, want %d", vars[i], got[i], vals[i])
		}
	}

	// Fail all of the victim's modules: its live copies drop below the
	// majority, so its request must fail with the quorum verdict — and only
	// its request. Companions are chosen with at most one copy in the failed
	// set so they provably keep a live majority.
	for _, m := range vmods[1:] {
		fs.Fail(m)
	}
	failed := map[uint64]bool{}
	for _, m := range vmods {
		failed[m] = true
	}
	batch := []uint64{victim}
	var scratch []uint64
	for v := uint64(0); v < uint64(n) && len(batch) < 8; v++ {
		if v == victim {
			continue
		}
		live := 0
		scratch = s.VarModules(scratch[:0], idx.Mat(v))
		for _, m := range scratch {
			if !failed[m] {
				live++
			}
		}
		if live >= s.Majority {
			batch = append(batch, v)
		}
	}
	got, met, err = sys.ReadBatch(batch)
	if !errors.Is(err, ErrQuorumUnreachable) {
		t.Fatalf("quorum loss not reported: %v", err)
	}
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("ErrQuorumUnreachable must unwrap to ErrIncomplete: %v", err)
	}
	if len(met.Stranded) != 1 || met.Stranded[0] != 0 {
		t.Fatalf("stranded set %v, want [0] (the victim)", met.Stranded)
	}
	for i := 1; i < len(batch); i++ {
		if got[i] != batch[i]+100 {
			t.Fatalf("healthy companion %d read %d, want %d under partial failure", batch[i], got[i], batch[i]+100)
		}
	}

	// Recovery, once the repair sweep has certified it, heals the next batch
	// on the same System.
	for _, m := range vmods {
		fs.RecoverPending(m)
	}
	drainRepair(t, sys)
	got, _, err = sys.ReadBatch(batch)
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if got[0] != vals[victim] {
		t.Fatalf("victim after recovery = %d, want %d", got[0], vals[victim])
	}
}

// TestFaultMatrix is the fault-tolerance matrix: random fault sets of size
// 0..⌊r/2⌋ × every Mapper in the repository × live and compiled resolvers. The contract under test is the tentpole's: every
// variable that retains a full live quorum round-trips, and every variable
// that does not is reported per-request as stranded while the rest of its
// batch commits.
func TestFaultMatrix(t *testing.T) {
	type mcase struct {
		name  string
		build func() (Mapper, error)
	}
	s2, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := s2.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	s4, err := core.New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx4, err := s4.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	mappers := []mcase{
		{"pp93-q2", func() (Mapper, error) { return NewCoreMapper(s2, idx2), nil }},
		{"pp93-q4", func() (Mapper, error) { return NewCoreMapper(s4, idx4), nil }},
		{"mv-c2", func() (Mapper, error) { return baseline.NewMV(64, 4096, 2) }},
		{"single", func() (Mapper, error) { return baseline.NewSingleCopy(64, 4096, baseline.PlaceInterleaved, 0) }},
		{"uw-c2", func() (Mapper, error) { return baseline.NewUW(64, 4096, 2, 7) }},
	}
	const batchSize = 48
	seed := int64(1)
	for _, mc := range mappers {
		for _, compiled := range []bool{false, true} {
			m, err := mc.build()
			if err != nil {
				t.Fatal(err)
			}
			maxFaults := m.Copies() / 2
			for k := 0; k <= maxFaults; k++ {
				seed++
				// par=false: the cell ids stay those the committed test floor lists.
				name := fmt.Sprintf("%s/par=false/compiled=%v/faults=%d", mc.name, compiled, k)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					faults := workload.RandomFaults(rng, m.NumModules(), k)
					fs := mpc.NewFaultSet(faults...)
					cfg := Config{
						NewMachine: func(mcfg mpc.Config) (Machine, error) {
							return mpc.NewFailingShared(mcfg, fs)
						},
					}
					if compiled {
						cfg.Resolver = compileTable(t, m)
					}
					sys, err := NewGenericSystem(m, cfg)
					if err != nil {
						t.Fatal(err)
					}

					vars := workload.DistinctRandom(rng, m.NumVars(), batchSize)
					vals := make([]uint64, len(vars))
					liveOf := make([]int, len(vars))
					for i, v := range vars {
						vals[i] = uint64(1000 + i)
						live := 0
						for c := 0; c < m.Copies(); c++ {
							mod, _ := m.CopyAddr(v, c)
							if !fs.Snapshot().Failed(mod) {
								live++
							}
						}
						liveOf[i] = live
					}
					writable := func(i int) bool { return liveOf[i] >= m.WriteQuorum() }
					readable := func(i int) bool { return liveOf[i] >= m.ReadQuorum() }

					met, err := sys.WriteBatch(vars, vals)
					checkVerdicts(t, "write", met, err, len(vars), writable)

					got, rmet, rerr := sys.ReadBatch(vars)
					checkVerdicts(t, "read", rmet, rerr, len(vars), readable)
					for i := range vars {
						if writable(i) && readable(i) && got[i] != vals[i] {
							t.Fatalf("var %d (live %d/%d) round-trip read %d, want %d",
								vars[i], liveOf[i], m.Copies(), got[i], vals[i])
						}
					}
				})
			}
		}
	}
}

// epochFailMachine wraps the shared-fault interconnect and fails the
// scheduled modules immediately before executing round `at` (1-based), so
// the fault lands mid-phase: the batch loop selected its bids under the old
// fault epoch and only discovers the change on its next iteration.
type epochFailMachine struct {
	*mpc.Failing
	mods  []uint64
	at    int
	round int
}

func (m *epochFailMachine) Round(bids []int64, grant []bool) int {
	m.round++
	if m.round == m.at {
		for _, mod := range m.mods {
			m.Fail(mod)
		}
	}
	return m.Failing.Round(bids, grant)
}

// TestMidPhaseTotalBidLoss pins the refilter shed hole: when every in-flight
// bid of a request is dropped mid-phase (all its selected modules fail at
// once, with no live spare copy to reroute to), the request has no surviving
// task for a shed pass to key off — it must still reach the retry pass and
// surface in Unfinished/Stranded with ErrQuorumUnreachable instead of
// completing silently with a zero value, while the rest of the batch
// commits.
func TestMidPhaseTotalBidLoss(t *testing.T) {
	t.Run("all-cancel", func(t *testing.T) {
		s, err := core.New(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := s.NewIndexer()
		if err != nil {
			t.Fatal(err)
		}
		m := NewCoreMapper(s, idx)

		// The victim bids for all its copies. Failing exactly those
		// modules mid-phase drops its every bid with no live spare.
		victim := uint64(10)
		mods := make([]uint64, 0, m.Copies())
		failed := map[uint64]bool{}
		for c := 0; c < m.Copies(); c++ {
			mod, _ := m.CopyAddr(victim, c)
			mods = append(mods, mod)
			failed[mod] = true
		}

		fs := mpc.NewFaultSet()
		var wrap *epochFailMachine
		sys, err := NewSystem(s, idx, Config{
			NewMachine: func(mcfg mpc.Config) (Machine, error) {
				f, err := mpc.NewFailingShared(mcfg, fs)
				if err != nil {
					return nil, err
				}
				wrap = &epochFailMachine{Failing: f, mods: mods}
				return wrap, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.maxIter = 256

		// Companions provably keep their quorum after the injected
		// failure: a live majority suffices.
		batch := []uint64{victim}
		for v := uint64(0); v < m.NumVars() && len(batch) < 7; v++ {
			if v == victim {
				continue
			}
			live := 0
			for c := 0; c < m.Copies(); c++ {
				if mod, _ := m.CopyAddr(v, c); !failed[mod] {
					live++
				}
			}
			if live >= m.ReadQuorum() {
				batch = append(batch, v)
			}
		}
		vals := make([]uint64, len(batch))
		for i := range batch {
			vals[i] = batch[i] + 500
		}
		if _, err := sys.WriteBatch(batch, vals); err != nil {
			t.Fatalf("healthy seed write: %v", err)
		}

		// Arm the wrapper: the next MPC round is the first round of the
		// read batch's phase 0, after the victim's bids were selected
		// under the healthy epoch — a genuinely mid-phase failure.
		wrap.at = wrap.round + 1

		got, met, err := sys.ReadBatch(batch)
		if !errors.Is(err, ErrQuorumUnreachable) {
			t.Fatalf("mid-phase total bid loss not reported: err=%v unfinished=%v stranded=%v",
				err, met.Unfinished, met.Stranded)
		}
		if len(met.Unfinished) != 1 || met.Unfinished[0] != 0 {
			t.Fatalf("unfinished set %v, want [0] (the victim)", met.Unfinished)
		}
		if len(met.Stranded) != 1 || met.Stranded[0] != 0 {
			t.Fatalf("stranded set %v, want [0] (the victim)", met.Stranded)
		}
		for i := 1; i < len(batch); i++ {
			if got[i] != vals[i] {
				t.Fatalf("healthy companion %d read %d, want %d under mid-phase failure", batch[i], got[i], vals[i])
			}
		}
	})
}

// checkVerdicts asserts the per-request fault attribution for one batch:
// requests whose variable keeps a full live quorum finish, the rest appear
// in both Unfinished and Stranded, and the batch error matches.
func checkVerdicts(t *testing.T, op string, met *Metrics, err error, n int, ok func(int) bool) {
	t.Helper()
	unfinished := map[int]bool{}
	for _, r := range met.Unfinished {
		unfinished[r] = true
	}
	stranded := map[int]bool{}
	for _, r := range met.Stranded {
		stranded[r] = true
		if !unfinished[r] {
			t.Fatalf("%s: stranded request %d missing from Unfinished", op, r)
		}
	}
	wantFail := 0
	for i := 0; i < n; i++ {
		if ok(i) {
			if unfinished[i] {
				t.Fatalf("%s: request %d has a full live quorum but did not finish", op, i)
			}
			continue
		}
		wantFail++
		if !unfinished[i] || !stranded[i] {
			t.Fatalf("%s: request %d lost its quorum but was not attributed (unfinished=%v stranded=%v)",
				op, i, unfinished[i], stranded[i])
		}
	}
	if wantFail == 0 {
		if err != nil {
			t.Fatalf("%s: unexpected batch error with all quorums live: %v", op, err)
		}
		return
	}
	if !errors.Is(err, ErrQuorumUnreachable) {
		t.Fatalf("%s: %d stranded requests but error is %v", op, wantFail, err)
	}
}
