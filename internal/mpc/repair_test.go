package mpc

import (
	"sync"
	"testing"
)

// TestRepairLifecycle walks one module through the full
// fail -> repairing -> certified lifecycle and checks every observable.
func TestRepairLifecycle(t *testing.T) {
	fs := NewFaultSet()
	const m = 7

	if fs.Repairing(m) || fs.RepairCount() != 0 || fs.RepairGen(m) != 0 {
		t.Fatalf("fresh set has repair state")
	}

	if !fs.Fail(m) {
		t.Fatalf("Fail(%d) = false on fresh set", m)
	}
	if !fs.RecoverPending(m) {
		t.Fatalf("RecoverPending(%d) = false on failed module", m)
	}
	if fs.Failed(m) {
		t.Errorf("module %d still failed after RecoverPending", m)
	}
	if !fs.Repairing(m) {
		t.Errorf("module %d not repairing after RecoverPending", m)
	}
	if fs.RepairCount() != 1 {
		t.Errorf("RepairCount = %d, want 1", fs.RepairCount())
	}
	gen := fs.RepairGen(m)
	if gen == 0 {
		t.Fatalf("RepairGen(%d) = 0 while repairing", m)
	}
	if got := fs.AppendRepairing(nil); len(got) != 1 || got[0] != m {
		t.Errorf("AppendRepairing = %v, want [%d]", got, m)
	}

	if fs.Certify(m, gen+1) {
		t.Errorf("Certify with wrong generation succeeded")
	}
	if fs.Certify(m, 0) {
		t.Errorf("Certify with zero generation succeeded")
	}
	if !fs.Certify(m, gen) {
		t.Fatalf("Certify(%d, %d) = false", m, gen)
	}
	if fs.Repairing(m) || fs.Failed(m) || fs.RepairCount() != 0 {
		t.Errorf("module %d not fully live after certification", m)
	}
	if fs.Certify(m, gen) {
		t.Errorf("second Certify with stale generation succeeded")
	}
}

// TestRepairReArmFencesCertification pins the double-wipe fence: a module
// re-armed (second RecoverPending) while a sweep is in flight must not be
// certifiable with the sweep's captured generation.
func TestRepairReArmFencesCertification(t *testing.T) {
	fs := NewFaultSet()
	const m = 3
	fs.Fail(m)
	fs.RecoverPending(m)
	first := fs.RepairGen(m)

	// Second restart mid-repair: re-arm. Reports false (not newly
	// repairing) but must mint a fresh generation.
	if fs.RecoverPending(m) {
		t.Errorf("re-arm RecoverPending reported newly-repairing")
	}
	second := fs.RepairGen(m)
	if second == first {
		t.Fatalf("re-arm did not advance generation (%d)", first)
	}
	if fs.Certify(m, first) {
		t.Fatalf("stale-generation certification succeeded after re-arm")
	}
	if !fs.Repairing(m) {
		t.Fatalf("module left repairing state on stale certification")
	}
	if !fs.Certify(m, second) {
		t.Fatalf("current-generation certification failed")
	}
}

// TestRepairFailClearsRepairing: a module that crashes again mid-repair is
// failed, not repairing, and the old sweep can no longer certify it.
func TestRepairFailClearsRepairing(t *testing.T) {
	fs := NewFaultSet()
	const m = 11
	fs.Fail(m)
	fs.RecoverPending(m)
	gen := fs.RepairGen(m)

	if !fs.Fail(m) {
		t.Fatalf("Fail on repairing module = false")
	}
	if fs.Repairing(m) {
		t.Errorf("failed module still repairing")
	}
	if !fs.Failed(m) {
		t.Errorf("module not failed")
	}
	if fs.Certify(m, gen) {
		t.Errorf("certified a module that failed mid-repair")
	}
	if fs.Failed(m) == false {
		t.Errorf("certification attempt resurrected a failed module")
	}
}

// TestRepairEpochAdvances: every repair transition must bump the epoch so
// protocol-layer re-filters notice.
func TestRepairEpochAdvances(t *testing.T) {
	fs := NewFaultSet()
	const m = 5
	e0 := fs.Epoch()
	fs.Fail(m)
	e1 := fs.Epoch()
	fs.RecoverPending(m)
	e2 := fs.Epoch()
	fs.RecoverPending(m) // re-arm
	e3 := fs.Epoch()
	fs.Certify(m, fs.RepairGen(m))
	e4 := fs.Epoch()
	if !(e0 < e1 && e1 < e2 && e2 < e3 && e3 < e4) {
		t.Fatalf("epochs not strictly increasing: %d %d %d %d %d", e0, e1, e2, e3, e4)
	}
}

// TestRepairingServesRounds: a repairing module is not failed, so its bids
// are served (write quorums can count it immediately).
func TestRepairingServesRounds(t *testing.T) {
	f, err := NewFailing(Config{Procs: 4, Modules: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}

	f.Fail(2)
	grant := make([]bool, 4)
	f.Round(dense(2, 2, 3, Idle), grant)
	if grant[0] || grant[1] {
		t.Fatalf("failed module served a bid")
	}

	f.RecoverPending(2)
	if !f.Repairing(2) {
		t.Fatalf("Repairing(2) = false after RecoverPending")
	}
	if f.Failed(2) {
		t.Fatalf("Failed(2) = true while repairing")
	}
	f.Round(dense(2, Idle, Idle, Idle), grant)
	if !grant[0] {
		t.Fatalf("repairing module did not serve a bid")
	}

	gen := f.RepairGen(2)
	if f.CertifyBatch([]uint64{2}, []uint64{gen}) != 1 {
		t.Fatalf("CertifyBatch failed")
	}
	if f.Repairing(2) {
		t.Fatalf("still repairing after CertifyBatch")
	}
}

// TestRepairConcurrentChurn hammers the repair transitions from several
// goroutines; run under -race this pins the snapshot discipline.
func TestRepairConcurrentChurn(t *testing.T) {
	fs := NewFaultSet()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := uint64(g * 16)
			for i := 0; i < 2000; i++ {
				fs.Fail(m + uint64(i%16))
				fs.RecoverPending(m + uint64(i%16))
				if gen := fs.RepairGen(m + uint64(i%16)); gen != 0 {
					fs.Certify(m+uint64(i%16), gen)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]uint64, 0, 64)
		for i := 0; i < 2000; i++ {
			buf = fs.AppendRepairing(buf[:0])
			_ = fs.RepairCount()
			_ = fs.Epoch()
		}
	}()
	wg.Wait()
	// Drain: certify everything left.
	for _, m := range fs.AppendRepairing(nil) {
		fs.Certify(m, fs.RepairGen(m))
	}
	if n := fs.RepairCount(); n != 0 {
		t.Fatalf("repair set not drained: %d left", n)
	}
}

// TestFaultSetRangeMatchesLoop: a range mutator must leave exactly the state
// the per-module loop leaves — sets, counts, generations — while publishing
// one snapshot instead of one per module.
func TestFaultSetRangeMatchesLoop(t *testing.T) {
	const n = 16383
	lo, hi := uint64(n/3), uint64(n/3+n/4) // neither end word-aligned
	ranged, looped := NewFaultSet(5, 6, lo+1), NewFaultSet(5, 6, lo+1)
	same := func(step string) {
		t.Helper()
		if ranged.Count() != looped.Count() || ranged.RepairCount() != looped.RepairCount() {
			t.Fatalf("%s: %d failed, %d repairing; the loop leaves %d, %d",
				step, ranged.Count(), ranged.RepairCount(), looped.Count(), looped.RepairCount())
		}
		for m := uint64(0); m < n; m++ {
			if ranged.Failed(m) != looped.Failed(m) || ranged.RepairGen(m) != looped.RepairGen(m) {
				t.Fatalf("%s: module %d failed=%v gen=%d; the loop leaves failed=%v gen=%d",
					step, m, ranged.Failed(m), ranged.RepairGen(m), looped.Failed(m), looped.RepairGen(m))
			}
		}
	}
	for _, step := range []struct {
		name string
		rng  func(lo, hi uint64) int
		one  func(m uint64) bool
	}{
		{"FailRange", ranged.FailRange, looped.Fail},
		{"RecoverPendingRange", ranged.RecoverPendingRange, looped.RecoverPending},
		{"RecoverPendingRange (re-arm)", ranged.RecoverPendingRange, looped.RecoverPending},
		{"FailRange over repairing", ranged.FailRange, looped.Fail},
	} {
		before := ranged.Epoch()
		moved := 0
		for m := lo; m < hi; m++ {
			if step.one(m) {
				moved++
			}
		}
		if got := step.rng(lo, hi); got != moved {
			t.Fatalf("%s moved %d modules, the loop moved %d", step.name, got, moved)
		}
		if ranged.Epoch() != before+1 {
			t.Fatalf("%s bumped the epoch by %d, want 1", step.name, ranged.Epoch()-before)
		}
		same(step.name)
	}
	if ranged.Count() != int(hi-lo)+2 || !ranged.Failed(5) || !ranged.Failed(6) {
		t.Fatalf("modules outside the range were disturbed: %d failed, want the range plus 5 and 6", ranged.Count())
	}
}

// TestFaultSnapshotsImmutable: snapshots share structure, so a mutation
// must copy what it writes — a round still holding an older snapshot keeps
// seeing the set as it was.
func TestFaultSnapshotsImmutable(t *testing.T) {
	fs := NewFaultSet()
	fs.FailRange(0, 200)
	fs.RecoverPendingRange(50, 150)
	old := fs.snapshot()
	gen := old.gen(100)
	fs.RecoverPendingRange(90, 110) // re-arm inside old's chunks
	fs.CertifyBatch([]uint64{60}, []uint64{fs.RepairGen(60)})
	fs.FailRange(120, 130)
	fs.RecoverPendingRange(0, 50)
	if old.count != 100 || old.rcount != 100 || old.gen(100) != gen || !old.repairing(60) ||
		!old.repairing(125) || old.failed(125) || !old.failed(10) {
		t.Fatalf("a published snapshot changed under later mutations: %d failed, %d repairing, gen(100) %d (was %d)",
			old.count, old.rcount, old.gen(100), gen)
	}
}

// TestRangeMutationIsAtomicToRounds: a range call is one snapshot, so a
// round racing a server going down and coming back serves either all of the
// range's modules or none of them, never a part. Run under -race this also
// pins the range mutators' publication discipline.
func TestRangeMutationIsAtomicToRounds(t *testing.T) {
	const modules, lo, hi = 200, 30, 170 // spans three bitmask words, ends unaligned
	f, err := NewFailing(Config{Procs: modules, Modules: modules}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := f.FaultSet
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mods, gens []uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.FailRange(lo, hi)
			fs.RecoverPendingRange(lo, hi)
			mods, gens = fs.AppendRepairing(mods[:0]), gens[:0]
			for _, m := range mods {
				gens = append(gens, fs.RepairGen(m))
			}
			fs.CertifyBatch(mods, gens)
		}
	}()
	reqs := make([]int64, modules)
	for p := range reqs {
		reqs[p] = Bid(p, int64(p))
	}
	grant := make([]bool, modules)
	for i := 0; i < 3000; i++ {
		f.Round(reqs, grant)
		served := 0
		for m := lo; m < hi; m++ {
			if grant[m] {
				served++
			}
		}
		if served != 0 && served != hi-lo {
			t.Errorf("round %d served %d of the range's %d modules: it saw the range half-applied", i, served, hi-lo)
			break
		}
	}
	close(stop)
	wg.Wait()
}
