package protocol

import (
	"errors"
	"fmt"
	"testing"

	"detshmem/internal/cellstore"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// repairSystem builds a PP system over a shared fault set so tests can
// drive the full fail -> wipe -> RecoverPending -> repair lifecycle.
// The q=2, n=3 scheme: 84 variables, 63 modules, 3 copies, quorum 2.
// Writes stop at their quorum, so a fresh write lands on the first two
// live copies and the third stays at timestamp 0 — which is exactly why a
// wiped module plus one crashed module can leave a read quorum with no
// surviving timestamp.
func repairSystem(t testing.TB, hook func(bids []int64, grant []bool)) (*System, *mpc.FaultSet) {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fs := mpc.NewFaultSet()
	sys, err := NewSystem(s, idx, Config{
		NewMachine: func(cfg mpc.Config) (Machine, error) {
			f, err := mpc.NewFailingShared(cfg, fs)
			if err != nil {
				return nil, err
			}
			if hook == nil {
				return f, nil
			}
			return &hookedMachine{Failing: f, hook: hook}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, fs
}

// hookedMachine invokes a callback after every round with the round's bids
// and grants, letting tests inject fault-set mutations at a deterministic
// mid-phase point.
type hookedMachine struct {
	*mpc.Failing
	hook func(bids []int64, grant []bool)
}

func (h *hookedMachine) Round(bids []int64, grant []bool) int {
	n := h.Failing.Round(bids, grant)
	h.hook(bids, grant)
	return n
}

// victimModules returns the modules hosting each copy of v.
func victimModules(sys *System, v uint64) []uint64 {
	out := make([]uint64, sys.Mapper.Copies())
	for c := range out {
		out[c], _ = sys.Mapper.CopyAddr(v, c)
	}
	return out
}

// wipeCopies zeroes the stored cells of the given copies of v, simulating a
// module whose store was lost across a restart.
func wipeCopies(sys *System, v uint64, copies ...int) {
	for _, c := range copies {
		_, addr := sys.Mapper.CopyAddr(v, c)
		sys.cells().Put(addr, cellstore.Cell{})
	}
}

// drainRepair pumps RepairStep until the backlog is empty.
func drainRepair(t *testing.T, sys *System) {
	t.Helper()
	for i := 0; sys.RepairBacklog() > 0; i++ {
		if !sys.RepairStep() {
			t.Fatalf("repair stalled with backlog %d after %d steps", sys.RepairBacklog(), i)
		}
		if i > 1_000_000 {
			t.Fatalf("repair did not drain after %d steps", i)
		}
	}
}

// TestWipedRecoverReAdmissionBug: a write lands on copies 0 and 1 (the
// quorum), copy 2 stays at timestamp 0. Copy 0's module crashes and restarts
// with a wiped store; copy 1's module crashes and stays down. Re-admitted as
// it is, the wiped module would make {copy0, copy2} — both at timestamp 0 —
// a read quorum that returns the zero value while the crashed module holds
// the freshest write. RecoverPending bars the wiped module from read
// quorums, the repair sweep refuses to certify while the fresh copy is
// unreadable, and once the crashed module returns the sweep rebuilds the
// wiped copy.
func TestWipedRecoverReAdmissionBug(t *testing.T) {
	const v, val = 7, uint64(42)

	t.Run("RecoverPending repairs before serving reads", func(t *testing.T) {
		sys, fs := repairSystem(t, nil)
		if _, err := sys.WriteBatch([]uint64{v}, []uint64{val}); err != nil {
			t.Fatal(err)
		}
		mods := victimModules(sys, v)
		fs.Fail(mods[0])
		fs.Fail(mods[1])
		wipeCopies(sys, v, 0)
		fs.RecoverPending(mods[0])

		// The wiped copy is barred from read quorums: with copy 1's module
		// down, only copy 2 is trustworthy — the read must come back
		// incomplete, never a zero-timestamp value.
		got, _, err := sys.ReadBatch([]uint64{v})
		if err == nil {
			t.Fatalf("uncertified read completed with value %d, want ErrIncomplete", got[0])
		}
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("read during repair: %v, want ErrIncomplete", err)
		}

		// The sweep must NOT certify while the freshest copy sits in the
		// crashed store: the backlog parks until the fault set changes.
		for i := 0; i < 4 && sys.RepairStep(); i++ {
		}
		if sys.RepairBacklog() == 0 {
			t.Fatalf("sweep certified the wiped module while the fresh copy was unreadable")
		}

		// The crashed module returns (its store intact), also under repair;
		// now no copy is unreadable and the sweep rebuilds the wiped one.
		fs.RecoverPending(mods[1])
		drainRepair(t, sys)
		if fs.RepairCount() != 0 {
			t.Fatalf("repair count %d after drain", fs.RepairCount())
		}
		got, _, err = sys.ReadBatch([]uint64{v})
		if err != nil {
			t.Fatalf("read after repair: %v", err)
		}
		if got[0] != val {
			t.Fatalf("read after repair = %d, want %d", got[0], val)
		}
		// The rebuild installed the value, not just its visibility: the wiped
		// copy carries the write's timestamp again.
		if ts := sys.CopyState(v)[0]; ts == 0 {
			t.Fatalf("wiped copy still at timestamp 0 after repair")
		}
	})
}

// TestRecoverMidWave pins the majority-intersection invariant against the
// second PR 10 hazard: a module recovering mid-phase used to be re-selected
// by the same batch's retry wave before any repair ran, so a retry quorum
// could include its wiped, zero-timestamp copy. The read must never complete
// against the uncertified wiped copy — it either returns the true value or
// comes back incomplete until repair certifies.
func TestRecoverMidWave(t *testing.T) {
	t.Run("all-cancel", func(t *testing.T) {
		const val = uint64(99)
		var sys *System
		var fs *mpc.FaultSet
		var victim uint64
		armed := false
		hook := func([]int64, []bool) {
			if !armed {
				return
			}
			armed = false
			// Mid-phase: copy 0's module restarts with a wiped store.
			// Re-admitted without repair, it would count toward the
			// victim's retry wave's read quorum.
			wipeCopies(sys, victim, 0)
			fs.RecoverPending(victimModules(sys, victim)[0])
		}
		sys, fs = repairSystem(t, hook)

		victim = 3
		// Filler variables keep rounds running after the victim is
		// queued for retry, so the hook fires genuinely mid-wave.
		vars := []uint64{victim}
		vals := []uint64{val}
		for v := uint64(20); len(vars) < 24; v++ {
			vars = append(vars, v)
			vals = append(vals, v)
		}
		if _, err := sys.WriteBatch(vars, vals); err != nil {
			t.Fatal(err)
		}
		mods := victimModules(sys, victim)
		fs.Fail(mods[0])
		fs.Fail(mods[1]) // holds the other fresh copy; stays down
		armed = true

		got, _, err := sys.ReadBatch(vars)
		if armed {
			t.Fatalf("hook never fired: the batch ran no rounds mid-wave")
		}
		if err == nil {
			// The whole batch completed; the victim's value must be the
			// true one — the wiped copy never won a quorum.
			if got[0] != val {
				t.Fatalf("mid-wave read = %d, want %d", got[0], val)
			}
		} else if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("mid-wave read: %v", err)
		}

		// The crashed module returns under repair; the sweep rebuilds the
		// wiped copy and certifies both.
		fs.RecoverPending(mods[1])
		drainRepair(t, sys)
		got, _, err = sys.ReadBatch(vars)
		if err != nil {
			t.Fatalf("read after repair: %v", err)
		}
		for i := range vars {
			if got[i] != vals[i] {
				t.Fatalf("var %d = %d, want %d", vars[i], got[i], vals[i])
			}
		}
		if ts := sys.CopyState(victim)[0]; ts == 0 {
			t.Fatalf("wiped copy still at timestamp 0 after repair")
		}
	})
}

// TestRepairingCountsTowardWriteQuorum: the asymmetric gate. A module under
// repair serves bids and counts toward write quorums immediately (the
// written copy receives fresh data), while reads stay barred until
// certification.
func TestRepairingCountsTowardWriteQuorum(t *testing.T) {
	const v, val = 11, uint64(5)
	sys, fs := repairSystem(t, nil)
	mods := victimModules(sys, v)

	// Two of three modules down: no write quorum, the request strands.
	fs.Fail(mods[0])
	fs.Fail(mods[1])
	if _, err := sys.WriteBatch([]uint64{v}, []uint64{val}); !errors.Is(err, ErrQuorumUnreachable) {
		t.Fatalf("write with 1 live copy: %v, want ErrQuorumUnreachable", err)
	}

	// One module comes back pending repair: writes recover immediately.
	fs.RecoverPending(mods[0])
	if _, err := sys.WriteBatch([]uint64{v}, []uint64{val}); err != nil {
		t.Fatalf("write with repairing module: %v", err)
	}

	// Reads stay gated: one trustworthy copy is below the read quorum, and
	// crucially this is reported as incomplete (transient), not stranded.
	_, _, err := sys.ReadBatch([]uint64{v})
	if !errors.Is(err, ErrIncomplete) || errors.Is(err, ErrQuorumUnreachable) {
		t.Fatalf("read with repairing module: %v, want plain ErrIncomplete", err)
	}

	// Once the second module returns, the sweep certifies and reads see the
	// write that went through while the module was still repairing.
	fs.RecoverPending(mods[1])
	drainRepair(t, sys)
	got, _, err := sys.ReadBatch([]uint64{v})
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if got[0] != val {
		t.Fatalf("read after repair = %d, want %d", got[0], val)
	}
}

// TestRepairPumpRidesBatches: with no idle pump in sight, sustained batch
// traffic alone must drain the repair backlog (AccessInto pumps one
// budget-bounded step per batch) and the repair books must flow through the
// observer.
func TestRepairPumpRidesBatches(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fs := mpc.NewFaultSet()
	col := obs.NewCollector()
	sys, err := NewSystem(s, idx, Config{
		Observer: col,
		NewMachine: func(cfg mpc.Config) (Machine, error) {
			return mpc.NewFailingShared(cfg, fs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	vars := []uint64{2, 3, 5, 8, 13}
	vals := []uint64{1, 2, 3, 4, 5}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatal(err)
	}
	mod := victimModules(sys, vars[0])[0]
	fs.Fail(mod)
	fs.RecoverPending(mod)

	for i := 0; i < 64 && sys.RepairBacklog() > 0; i++ {
		v := 20 + uint64(i)%60 // stay inside M=84 and clear of the checked vars
		if _, err := sys.WriteBatch([]uint64{v}, []uint64{uint64(i)}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if sys.RepairBacklog() != 0 {
		t.Fatalf("batch traffic did not drain the repair backlog: %d left", sys.RepairBacklog())
	}
	if col.RepairCertified.Load() == 0 {
		t.Fatalf("no certification reached the observer")
	}
	if col.RepairBacklog.Load() != 0 {
		t.Fatalf("observer backlog gauge = %d, want 0", col.RepairBacklog.Load())
	}
	got, _, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("var %d = %d, want %d", vars[i], got[i], vals[i])
		}
	}
}

// TestRepairSalvage: when no sound source majority will ever exist — the
// third copy was never written — the sweep salvages: it reads every live
// copy including the suspects themselves, installs the freshest survivor,
// and certifies only because no crashed module could be hiding a fresher
// value.
func TestRepairSalvage(t *testing.T) {
	const v, val = 19, uint64(77)
	sys, fs := repairSystem(t, nil)
	if _, err := sys.WriteBatch([]uint64{v}, []uint64{val}); err != nil {
		t.Fatal(err)
	}
	mods := victimModules(sys, v)
	fs.Fail(mods[0])
	fs.Fail(mods[1])
	fs.Fail(mods[2])
	wipeCopies(sys, v, 0) // copy 1's store survives its crash, copy 0's does not
	fs.RecoverPending(mods[0])
	fs.RecoverPending(mods[1])
	// mods[2] stays failed: with both other modules under repair there is no
	// trustworthy source at all, and the crashed module might hold a fresher
	// copy — the sweep must refuse to certify and park.
	for i := 0; i < 4 && sys.RepairStep(); i++ {
	}
	if sys.RepairBacklog() == 0 {
		t.Fatalf("sweep certified suspect copies while a crashed module could hold a fresher value")
	}
	if sys.RepairStep() {
		t.Fatalf("scheduler did not pause on an unrepairable backlog")
	}

	// The crashed module returns, under repair like the others. Its copy was
	// never written (timestamp 0), so there is still no sound majority — but
	// now nothing unread remains: salvage reads all three copies, finds the
	// survivor on a repairing module, rebuilds the wiped copy from it, and
	// certifies.
	fs.RecoverPending(mods[2])
	drainRepair(t, sys)
	got, _, err := sys.ReadBatch([]uint64{v})
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if got[0] != val {
		t.Fatalf("read after salvage = %d, want %d", got[0], val)
	}
	if ts := sys.CopyState(v)[0]; ts == 0 {
		t.Fatalf("wiped copy still at timestamp 0 after salvage")
	}
}

// TestRepairPauseIgnoresStaleSweep pins the drain-liveness rule the churn
// soak tripped at scale: a sweep that raced fault-set churn can certify
// nothing for reasons that evaporated with the churn — a module wiped again
// mid-sweep fences the sweep's captured generation, transiently failed
// sources mark variables dirty. Such a sweep proves nothing about whether a
// fresh sweep over the settled fault set would succeed, so the scheduler
// must not latch its no-progress pause on it (the churn being over, no
// fault-epoch mutation would ever unlatch it and the backlog would stick
// forever). Only a certify-nothing sweep whose fault epoch never moved —
// genuinely unrepairable state — may pause.
func TestRepairPauseIgnoresStaleSweep(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fs := mpc.NewFaultSet()
	sys, err := NewSystem(s, idx, Config{
		NewMachine: func(cfg mpc.Config) (Machine, error) {
			return mpc.NewFailingShared(cfg, fs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Small budget so one sweep spans several steps and the fault set can
	// move while it is in flight.
	sys.repairBudget = 8

	const victim = 5
	fs.Fail(victim)
	fs.RecoverPending(victim)
	if !sys.RepairStep() {
		t.Fatal("first repair step made no progress")
	}
	if !sys.rep.active {
		t.Fatal("sweep completed in one step; shrink repairBudget so the churn lands mid-sweep")
	}

	// Mid-sweep churn: the module is wiped and re-admitted again. Its repair
	// generation moves, so the in-flight sweep's certification must fail —
	// the classic certify-nothing ending.
	fs.Fail(victim)
	fs.RecoverPending(victim)

	// Churn over, fault set settled. The scheduler must keep sweeping and
	// drain the backlog; before the fix it paused on the stale sweep's
	// verdict and no step ever made progress again.
	for i := 0; fs.RepairCount() > 0; i++ {
		if i > 1000 {
			t.Fatalf("repair backlog stuck at %d after the churn stopped", fs.RepairCount())
		}
		sys.RepairStep()
	}
}

// TestReArmMidWave pins the bar a merged round loop could quietly move: a
// module entering repair mid-round bars a user Read only. The hook re-arms
// (RecoverPending) the module of the first ungranted, still-needed bid at a
// live, non-repairing module; the next round shows whether that bid
// survived. During a sweep's read wave the bid is at a source, and it keeps
// bidding — failure is the only bar for a sweep read (dropBarred). In a
// phase the Read bid is dropped and its request re-selected over what
// remains (refilterTasks). Either way every value reads back once repair
// drains.
func TestReArmMidWave(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep bool
	}{{"sweep read keeps its bid", true}, {"phase read is dropped", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var sys *System
			var fs *mpc.FaultSet
			// needed reports whether processor p's ungranted bid is still
			// needed after the round: a sweep read always is (a repair wave
			// cancels nothing); a phase-0 Read when its request — p - p%Copies,
			// as a cluster bids from its own processors — is still short of its
			// quorum.
			needed := func(p int, bids []int64, grant []bool) bool {
				if tc.sweep {
					return true
				}
				r, granted := p-p%sys.nCopies, int32(0)
				for i, b := range bids {
					if q := mpc.BidProc(b); q >= r && q < r+sys.nCopies && grant[i] {
						granted++
					}
				}
				return sys.remaining[r] > granted
			}
			armed, proc := false, -1
			var rearmed, after int64 = -1, -1
			hook := func(bids []int64, grant []bool) {
				switch {
				case !armed:
				case proc >= 0:
					armed, after = false, -1
					for _, b := range bids {
						if mpc.BidProc(b) == proc {
							after = mpc.BidModule(b)
						}
					}
				default:
					for i, b := range bids {
						p, m := mpc.BidProc(b), mpc.BidModule(b)
						if st := fs.Snapshot(); !grant[i] && !st.Failed(uint64(m)) && !st.Repairing(uint64(m)) && needed(p, bids, grant) {
							proc, rearmed = p, m
							fs.RecoverPending(uint64(m))
							return
						}
					}
				}
			}
			sys, fs = repairSystem(t, hook)
			n := int(sys.Mapper.NumModules())
			vars, vals := make([]uint64, n), make([]uint64, n)
			for i := range vars {
				vars[i], vals[i] = uint64(i), uint64(1000+i)
			}
			// A full batch first, so a repair wave carries N/Copies variables;
			// with 16 modules under repair its read waves contend at sources.
			if _, err := sys.WriteBatch(vars, vals); err != nil {
				t.Fatal(err)
			}

			armed = true
			if tc.sweep {
				for m := uint64(0); m < 16; m++ {
					fs.Fail(m)
					fs.RecoverPending(m)
				}
				for i := 0; armed && sys.RepairBacklog() > 0; i++ {
					if !sys.RepairStep() || i > 1000 {
						t.Fatalf("repair stopped after %d steps with the hook still armed", i)
					}
				}
			} else if _, _, err := sys.ReadBatch(vars); err != nil {
				t.Fatalf("read with a module re-armed mid-phase: %v", err)
			}
			if proc < 0 || armed {
				t.Fatalf("hook never saw a needed ungranted source bid and the round after it (proc %d)", proc)
			}
			if kept := after == rearmed; kept != tc.sweep {
				t.Fatalf("processor %d bid at module %d, re-armed mid-round; the next round it bid at %d (kept = %v, want %v)",
					proc, rearmed, after, kept, tc.sweep)
			}

			drainRepair(t, sys)
			got, _, err := sys.ReadBatch(vars)
			if err != nil {
				t.Fatalf("read after repair: %v", err)
			}
			for i := range vars {
				if got[i] != vals[i] {
					t.Fatalf("var %d = %d, want %d", vars[i], got[i], vals[i])
				}
			}
		})
	}
}

// TestReadmissionNeverUnTakesAWrite: a write that strands after reaching one
// copy may take effect later or never, but once a read has returned it, no
// later read may return the value it overwrote. q=2 n=3, one variable: W(1)
// commits on copies 0 and 1; copy 1's module fails, and copy 2's fails after
// W(2) has selected its copies and before its first round, so W(2) reaches
// copy 0 alone and strands. Copies 1 and 2 come back one at a time, each
// through RecoverPending and the sweep, and copy 0 then fails. A re-admission
// that trusted the returning copies as they are would read 2, 2, 1: the
// returning copies form a quorum without copy 0 and hide W(2) again. Through
// repair the reads are refused, 2, 2.
func TestReadmissionNeverUnTakesAWrite(t *testing.T) {
	const v = 7
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fs := mpc.NewFaultSet()
	round := 0
	script := map[int]func(*mpc.FaultSet){}
	sys, err := NewSystem(s, idx, Config{
		NewMachine: func(cfg mpc.Config) (Machine, error) {
			f, err := mpc.NewFailingShared(cfg, fs)
			if err != nil {
				return nil, err
			}
			return &flipMachine{Failing: f, round: &round, script: script}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mods := victimModules(sys, v)

	if _, err := sys.WriteBatch([]uint64{v}, []uint64{1}); err != nil {
		t.Fatalf("W(1): %v", err)
	}
	if ts := sys.CopyState(v); ts[0] == 0 || ts[1] == 0 || ts[2] != 0 {
		t.Fatalf("W(1) left copy timestamps %v, want copies 0 and 1 written", ts)
	}
	fs.Fail(mods[1])
	script[round+1] = func(fs *mpc.FaultSet) { fs.Fail(mods[2]) }
	if _, err := sys.WriteBatch([]uint64{v}, []uint64{2}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("W(2) with one copy reachable: %v, want it stranded", err)
	}
	if ts := sys.CopyState(v); ts[0] <= ts[1] {
		t.Fatalf("copy timestamps %v: W(2) did not reach copy 0", ts)
	}

	var reads []string
	seen2 := false
	read := func(step string) {
		t.Helper()
		got, _, err := sys.ReadBatch([]uint64{v})
		switch {
		case err != nil && !errors.Is(err, ErrIncomplete):
			t.Fatalf("read %s: %v", step, err)
		case err != nil:
			reads = append(reads, "refused")
		default:
			reads = append(reads, fmt.Sprint(got[0]))
			if seen2 && got[0] != 2 {
				t.Fatalf("read %s returned %d after an earlier read returned 2 (reads %v)", step, got[0], reads)
			}
			seen2 = seen2 || got[0] == 2
		}
	}
	// A sweep over copy 1 alone finds copy 2's module failed and W(2)'s
	// value on one copy; it pauses without certifying.
	fs.RecoverPending(mods[1])
	for i := 0; i < 4 && sys.RepairStep(); i++ {
	}
	read("after copy 1 returns")
	fs.RecoverPending(mods[2])
	drainRepair(t, sys)
	read("after copy 2 returns")
	fs.Fail(mods[0])
	read("after copy 0 fails")
	t.Logf("reads: %v", reads)
	if last := reads[len(reads)-1]; last != "2" {
		t.Fatalf("reads %v: the last read did not return 2", reads)
	}
}
