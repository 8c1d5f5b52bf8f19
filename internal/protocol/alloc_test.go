package protocol

import (
	"testing"

	"detshmem/internal/cellstore"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// allocSystem builds a compiled-resolver system over the q=2 core scheme for
// the steady-state allocation guards.
func allocSystem(t *testing.T, cfg Config) (*System, []Request) {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileMapper(NewCoreMapper(s, idx), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewGenericSystem(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int(r.NumModules())
	reqs := make([]Request, n)
	for i := range reqs {
		op := Read
		if i%2 == 0 {
			op = Write
		}
		reqs[i] = Request{Var: uint64(i * 37 % int(r.NumVars())), Op: op, Value: uint64(i)}
	}
	seen := map[uint64]bool{}
	w := 0
	for _, rq := range reqs {
		if !seen[rq.Var] {
			seen[rq.Var] = true
			reqs[w] = rq
			w++
		}
	}
	return sys, reqs[:w]
}

// TestAccessIntoSteadyStateAllocs pins the whole protocol iteration loop —
// validation, address resolution, the phase loop, metrics — at zero
// allocations per batch once the scratch buffers are warm, on the compiled
// table (TestStrategySteadyStateAllocs covers the computed path). The
// instrumentation hooks are installed explicitly: the no-op
// recorder on the round path and a live collector on the batch path (whose
// ObserveBatch is atomics-only) must not cost an allocation.
func TestAccessIntoSteadyStateAllocs(t *testing.T) {
	// failing builds a bare mpc.Failing, so a phase's first round is
	// firstRound's in place, over a fault set set up by state. Modules 5 and 40
	// hold no two copies of one variable of the batch, so failing them, or
	// holding them in repair, strands nothing: a stranded request's
	// QuorumError allocates by design.
	failing := func(state func(*mpc.FaultSet)) func(mpc.Config) (Machine, error) {
		return func(cfg mpc.Config) (Machine, error) {
			f, err := mpc.NewFailing(cfg, nil)
			if err == nil {
				state(f.FaultSet)
			}
			return f, err
		}
	}
	healthy := func(*mpc.FaultSet) {}
	degraded := func(fs *mpc.FaultSet) { fs.Fail(5); fs.Fail(40) }
	repairing := func(fs *mpc.FaultSet) {
		fs.RecoverPending(5)
		fs.RecoverPending(40)
	}
	for _, tc := range []struct {
		name       string
		newMachine func(mpc.Config) (Machine, error)
		// maxIter, when set, lowers the iteration bound, so the phases'
		// leftovers go through the retry pass.
		maxIter int
	}{
		// "sequential" keeps the id the committed test floor lists. The other
		// two run the same round with its other bodies: the fault layer's
		// per-grant bookkeeping (copy masks recovered from the packed rows),
		// and staged bids with remote grant data instead of the cell lists.
		// "fault-view" is the healthy fault set; the failing cells hold
		// modules failed, with the retry pass serving leftovers, or in repair,
		// where reads are barred from them.
		{"sequential", nil, 0},
		{"fault-view", failing(healthy), 0},
		{"failing-degraded", failing(degraded), 1},
		{"failing-repairing", failing(repairing), 0},
		{"remote-store", newRemoteMachine, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, reqs := allocSystem(t, Config{Recorder: obs.Nop, Observer: obs.NewCollector(), NewMachine: tc.newMachine})
			sys.repairBudget = -1 // the repair state holds still: certifying publishes a snapshot
			if tc.maxIter > 0 {
				sys.maxIter = tc.maxIter
			}
			var res Result
			if err := sys.AccessInto(reqs, &res); err != nil { // warm-up
				t.Fatal(err)
			}
			if tc.maxIter > 0 && res.Metrics.RetryRounds == 0 {
				t.Fatal("no retry pass: the cell no longer pins its lists")
			}
			if f, ok := sys.machine.(*mpc.Failing); ok && sys.inPlace != f.InPlace() {
				t.Fatal("the bare Failing was not found")
			}
			if avg := testing.AllocsPerRun(50, func() {
				if err := sys.AccessInto(reqs, &res); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("AccessInto allocates %.2f per batch in steady state, want 0", avg)
			}
		})
	}
}

// TestBatchWrappersSteadyStateAllocs pins the ReadBatch/WriteBatch
// convenience wrappers at zero allocations per call once their scratch
// (request conversion buffer plus the shared Result) is warm: the wrappers
// route through AccessInto with reused buffers instead of allocating a
// request slice and Result per call.
func TestBatchWrappersSteadyStateAllocs(t *testing.T) {
	// The subtest keeps the id the committed test floor lists.
	t.Run("sequential", func(t *testing.T) {
		sys, reqs := allocSystem(t, Config{Recorder: obs.Nop, Observer: obs.NewCollector()})
		vars := make([]uint64, len(reqs))
		vals := make([]uint64, len(reqs))
		for i, rq := range reqs {
			vars[i] = rq.Var
			vals[i] = uint64(100 + i)
		}
		if _, err := sys.WriteBatch(vars, vals); err != nil { // warm-up
			t.Fatal(err)
		}
		if _, _, err := sys.ReadBatch(vars); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if _, err := sys.WriteBatch(vars, vals); err != nil {
				t.Fatal(err)
			}
			if got, _, err := sys.ReadBatch(vars); err != nil {
				t.Fatal(err)
			} else if got[0] != vals[0] {
				t.Fatalf("readback %d, want %d", got[0], vals[0])
			}
		}); avg != 0 {
			t.Fatalf("batch wrappers allocate %.2f per write+read in steady state, want 0", avg)
		}
	})
}

// TestAccessMatchesAccessInto checks the allocating wrapper and the reuse
// path return identical values and metrics.
func TestAccessMatchesAccessInto(t *testing.T) {
	sysA, reqs := allocSystem(t, Config{})
	sysB, _ := allocSystem(t, Config{})

	vals := make([]uint64, len(reqs))
	for i := range vals {
		vals[i] = uint64(1000 + i)
	}
	for i := range reqs {
		reqs[i].Op = Write
		reqs[i].Value = vals[i]
	}
	resA, err := sysA.Access(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var resB Result
	if err := sysB.AccessInto(reqs, &resB); err != nil {
		t.Fatal(err)
	}
	if resA.Metrics.TotalRounds != resB.Metrics.TotalRounds ||
		resA.Metrics.CopyAccesses != resB.Metrics.CopyAccesses ||
		resA.Metrics.Phases != resB.Metrics.Phases {
		t.Fatalf("metrics diverge: Access=%+v AccessInto=%+v", resA.Metrics, resB.Metrics)
	}

	for i := range reqs {
		reqs[i].Op = Read
	}
	resA, err = sysA.Access(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sysB.AccessInto(reqs, &resB); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if resA.Values[i] != vals[i] || resB.Values[i] != vals[i] {
			t.Fatalf("read %d: Access=%d AccessInto=%d want %d", i, resA.Values[i], resB.Values[i], vals[i])
		}
	}
}

// TestRepairStepSteadyStateAllocs pins the background sweep — chunk
// resolution, wave task lists, MPC rounds — at zero allocations per step
// once a first sweep has grown the scratch, on the table and on the computed
// resolver. Each measured sweep gets its copies wiped first, so its waves
// carry real reads and real writes, and the measured steps stop short of the
// sweep's end (certification publishes a fault-set snapshot, which
// allocates by design).
func TestRepairStepSteadyStateAllocs(t *testing.T) {
	s, idx := sweepScheme(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"compiled", Config{Resolver: compileTable(t, NewCoreMapper(s, idx))}},
		{"computed", Config{Strategy: ResolverComputed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := mpc.NewFaultSet()
			sys := sharedFaultSystem(t, s, idx, fs, tc.cfg)
			sys.repairBudget = 64
			n := s.NumModules
			vars, vals := make([]uint64, n), make([]uint64, n)
			for i := range vars {
				vars[i], vals[i] = uint64(i), uint64(i)+1
			}
			if _, err := sys.WriteBatch(vars, vals); err != nil {
				t.Fatal(err)
			}
			lo, hi := n/2, n/2+n/4
			wipeAndReadmit := func() {
				fs.FailRange(lo, hi)
				for a := lo * uint64(s.ModuleSize); a < hi*uint64(s.ModuleSize); a++ {
					sys.cells().Put(a, cellstore.Cell{})
				}
				fs.RecoverPendingRange(lo, hi)
			}
			wipeAndReadmit()
			for sys.RepairBacklog() > 0 { // warm-up: one whole sweep
				if !sys.RepairStep() {
					t.Fatalf("repair stalled with backlog %d", sys.RepairBacklog())
				}
			}
			wipeAndReadmit()
			// One measured step per call (AllocsPerRun truncates the average
			// of several, and a wave that re-grows its task list is one
			// allocation); with its warm-up call that is two steps a round,
			// and the written variables end at step 1023/64.
			for i := 0; i < 6; i++ {
				if n := testing.AllocsPerRun(1, func() {
					if !sys.RepairStep() {
						t.Fatal("repair step made no progress mid-sweep")
					}
				}); n != 0 {
					t.Fatalf("RepairStep allocates %.0f times in a steady-state step, want 0", n)
				}
			}
			if !sys.rep.active {
				t.Fatal("the measured steps ran past the sweep's end")
			}
		})
	}
}
