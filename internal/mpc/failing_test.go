package mpc

import (
	"slices"
	"sync"
	"testing"

	"detshmem/internal/obs"
)

// TestFailingDynamic drives fail → drop → recover → serve through one
// machine and the fault set it embeds: a bid to a failed module is dropped
// (never granted), the drop is counted, and the module serves again after
// RecoverPending, before its repair is certified.
func TestFailingDynamic(t *testing.T) {
	f, err := NewFailing(Config{Procs: 4, Modules: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := dense(0, 1, 2, Idle)
	grant := make([]bool, 4)

	if served := f.Round(reqs, grant); served != 3 {
		t.Fatalf("healthy round served %d, want 3", served)
	}
	if f.DroppedBids() != 0 {
		t.Fatalf("healthy round dropped %d bids", f.DroppedBids())
	}

	if !f.Fail(1) {
		t.Fatal("Fail(1) reported no change")
	}
	if st := f.Snapshot(); !st.Failed(1) || st.Failed(0) || st.Count() != 1 {
		t.Fatalf("fault set wrong after Fail(1)")
	}
	if served := f.Round(reqs, grant); served != 2 {
		t.Fatalf("faulty round served %d, want 2", served)
	}
	if grant[1] {
		t.Fatalf("bid to failed module granted")
	}
	if f.DroppedBids() != 1 {
		t.Fatalf("dropped = %d, want 1", f.DroppedBids())
	}

	if !f.RecoverPending(1) {
		t.Fatal("RecoverPending(1) reported no change")
	}
	if served := f.Round(reqs, grant); served != 3 {
		t.Fatalf("recovered round served %d, want 3", served)
	}
	if f.DroppedBids() != 1 {
		t.Fatalf("dropped grew after recovery: %d", f.DroppedBids())
	}
}

// TestFailingBackwardCompatible pins the construction-time seeding path:
// modules listed at NewFailing are failed from round one, and out-of-range
// ids are rejected exactly as before.
func TestFailingBackwardCompatible(t *testing.T) {
	if _, err := NewFailing(Config{Procs: 2, Modules: 2}, []uint64{5}); err == nil {
		t.Fatalf("out-of-range failed module accepted")
	}
	f, err := NewFailing(Config{Procs: 2, Modules: 2}, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	grant := make([]bool, 2)
	if served := f.Round(dense(0, 1), grant); served != 1 || grant[0] {
		t.Fatalf("seeded failure not honoured: served=%d grant=%v", served, grant)
	}
}

// TestFaultSetEpoch pins the epoch contract: it moves exactly on effective
// mutations, and no-op mutations report false.
func TestFaultSetEpoch(t *testing.T) {
	fs := NewFaultSet()
	e0 := fs.Epoch()
	if !fs.Fail(3) || fs.Epoch() == e0 {
		t.Fatalf("Fail(3) did not advance the epoch")
	}
	e1 := fs.Epoch()
	if fs.Fail(3) || fs.Epoch() != e1 {
		t.Fatalf("repeated Fail(3) advanced the epoch")
	}
	if !fs.RecoverPending(3) || fs.Epoch() == e1 {
		t.Fatalf("RecoverPending(3) did not advance the epoch")
	}
	e2 := fs.Epoch()
	if !fs.Certify(3, fs.Snapshot().RepairGen(3)) || fs.Epoch() == e2 {
		t.Fatalf("Certify(3) did not advance the epoch")
	}
	e3 := fs.Epoch()
	if fs.Certify(3, 1) || fs.Epoch() != e3 {
		t.Fatalf("certifying a live module reported a change")
	}
	if fs.Count() != 0 || fs.RepairCount() != 0 {
		t.Fatalf("%d failed, %d repairing after fail, re-admission and certification", fs.Count(), fs.RepairCount())
	}
}

// TestFaultSnapshotHoldsStill: a snapshot keeps the state it was taken at
// while the set moves on, and a fresh one reads the set's new state.
func TestFaultSnapshotHoldsStill(t *testing.T) {
	fs := NewFaultSet(3)
	old := fs.Snapshot()
	fs.Fail(70)
	fs.RecoverPending(3)
	if !old.Failed(3) || old.Failed(70) || old.Repairing(3) || old.Count() != 1 || old.RepairCount() != 0 || old.Epoch() == fs.Epoch() {
		t.Fatalf("the old snapshot moved with the set")
	}
	now := fs.Snapshot()
	for _, m := range []uint64{3, 70, 71, 1 << 40} {
		if now.Failed(m) != (m == 70) || now.Repairing(m) != (m == 3) || (now.RepairGen(m) != 0) != (m == 3) {
			t.Fatalf("module %d: failed=%v repairing=%v gen=%d in the new snapshot", m, now.Failed(m), now.Repairing(m), now.RepairGen(m))
		}
	}
	if now.Epoch() != fs.Epoch() || now.Count() != 1 || now.RepairCount() != 1 || now.RepairGen(3) == 0 ||
		!slices.Equal(now.AppendRepairing(nil), []uint64{3}) {
		t.Fatalf("snapshot epoch %d count %d repairing %v, set epoch %d", now.Epoch(), now.Count(), now.AppendRepairing(nil), fs.Epoch())
	}
}

// TestFaultSetShared verifies two machines sharing a set see the same
// failure pattern.
func TestFaultSetShared(t *testing.T) {
	fs := NewFaultSet(2)
	a, err := NewFailingShared(Config{Procs: 4, Modules: 4}, fs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFailingShared(Config{Procs: 4, Modules: 4}, fs)
	if err != nil {
		t.Fatal(err)
	}
	grant := make([]bool, 4)
	for _, m := range []*Failing{a, b} {
		if served := m.Round(dense(2, 2, Idle, Idle), grant); served != 0 {
			t.Fatalf("shared failure not seen: served %d", served)
		}
	}
	fs.RecoverPending(2)
	for _, m := range []*Failing{a, b} {
		if served := m.Round(dense(2, Idle, Idle, Idle), grant); served != 1 {
			t.Fatalf("shared recovery not seen: served %d", served)
		}
	}
}

// captureRecorder records every round event (test helper).
type captureRecorder struct{ evs []obs.RoundEvent }

func (c *captureRecorder) Enabled() bool                 { return true }
func (c *captureRecorder) RecordRound(ev obs.RoundEvent) { c.evs = append(c.evs, ev) }

// TestFailingDropAnnotation checks the recorder sees per-round dropped-bid
// counts, so trace totals balance issued = requests + dropped exactly — also
// for a round played in place right after one that dropped bids, on the
// machine InPlace returned once before it, as the access protocol keeps it.
func TestFailingDropAnnotation(t *testing.T) {
	rec := &captureRecorder{}
	f, err := NewFailing(Config{Procs: 4, Modules: 4, Recorder: rec}, []uint64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	grant := make([]bool, 4)
	m := f.InPlace()
	f.Round(dense(0, 1, 2, 3), grant)
	m.OpenRound()
	m.Claim(-1, 0, 2)
	m.Claim(0, 1, 3)
	m.CloseRound(2)
	f.Round(dense(2, 3, Idle, Idle), grant)
	if len(rec.evs) != 3 {
		t.Fatalf("recorded %d rounds, want 3", len(rec.evs))
	}
	if rec.evs[0].Dropped != 2 || rec.evs[0].Requests != 2 {
		t.Fatalf("round 0: dropped=%d requests=%d, want 2/2", rec.evs[0].Dropped, rec.evs[0].Requests)
	}
	for i, ev := range rec.evs[1:] {
		if ev.Dropped != 0 || ev.Requests != 2 {
			t.Fatalf("round %d: dropped=%d requests=%d, want 0/2", i+1, ev.Dropped, ev.Requests)
		}
	}
	if f.DroppedBids() != 2 {
		t.Fatalf("cumulative dropped = %d, want 2", f.DroppedBids())
	}
}

// TestFaultSetConcurrent hammers Fail/RecoverPending from several
// goroutines while a machine runs rounds; run under -race this pins the
// snapshot publication protocol. Invariant checked: a round's grants never
// include a module that was failed for the whole round (here: module 0 is
// failed permanently before the rounds start, so it must never serve).
func TestFaultSetConcurrent(t *testing.T) {
	f, err := NewFailing(Config{Procs: 8, Modules: 8}, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := uint64(1 + g) // churn modules 1..4; module 0 stays failed
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Fail(m)
				f.RecoverPending(m)
			}
		}(g)
	}
	reqs := dense(0, 1, 2, 3, 4, 5, 6, 7)
	grant := make([]bool, 8)
	for i := 0; i < 2000; i++ {
		f.Round(reqs, grant)
		if grant[0] {
			t.Errorf("permanently failed module 0 served a request")
			break
		}
	}
	close(stop)
	wg.Wait()
}

// faultModel is FuzzFaultSet's reference: plain maps, one module at a time.
type faultModel struct {
	failed map[uint64]bool
	gen    map[uint64]uint64 // repairing modules and their generations
	seq    uint64            // mirrors FaultSet.genSeq: one mint per armed module, ascending
}

func (md *faultModel) fail(m uint64) bool {
	was := md.failed[m]
	md.failed[m] = true
	delete(md.gen, m)
	return !was
}

func (md *faultModel) recoverPending(m uint64) bool {
	_, rep := md.gen[m]
	delete(md.failed, m)
	md.seq++
	md.gen[m] = md.seq
	return !rep
}

func (md *faultModel) certify(m, gen uint64) bool {
	if g, ok := md.gen[m]; !ok || g != gen {
		return false
	}
	delete(md.gen, m)
	return true
}

// FuzzFaultSet differentially checks the copy-on-write fault set against a
// plain map model over any sequence of per-module, range and batch ops:
// every mutator's return value, the failed and repairing sets, the
// generations (a stale one never certifies), the counts, the ascending
// listings, exactly one epoch bump per effective call and none otherwise,
// and finally the round-level drop behaviour.
func FuzzFaultSet(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x01, 0x03})
	f.Add([]byte{0xff, 0x7f, 0x00, 0x80})
	f.Add([]byte{3, 10, 100, 4, 30, 90, 1, 0, 127, 5, 60, 70, 2, 64, 0, 6, 64, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const modules = 128 // two bitmask words, so ranges cross a word boundary
		fs := NewFaultSet()
		md := &faultModel{failed: map[uint64]bool{}, gen: map[uint64]uint64{}}
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := uint64(ops[i+1]%modules), uint64(ops[i+2]%modules)
			lo, hi := min(a, b), max(a, b)+1
			epoch := fs.Epoch()
			var got, want int // modules the call moved, per the set and per the model
			effective := false
			// each applies a per-module model op over [lo, hi).
			each := func(op func(uint64) bool) {
				for m := lo; m < hi; m++ {
					if op(m) {
						want++
					}
				}
			}
			b2i := func(ok bool) int {
				if ok {
					return 1
				}
				return 0
			}
			switch kind := ops[i] % 7; kind {
			case 0:
				got, want = b2i(fs.Fail(a)), b2i(md.fail(a))
			case 1:
				got, want = b2i(fs.RecoverPending(a)), b2i(md.recoverPending(a))
				effective = true // a re-arm moves nothing and still mints a generation
			case 2:
				gen := md.gen[a] + b&1 // current, or stale when b is odd (0 when a is not repairing)
				got, want = b2i(fs.Certify(a, gen)), b2i(md.certify(a, gen))
			case 3:
				got = fs.FailRange(lo, hi)
				each(md.fail)
			case 4:
				got = fs.RecoverPendingRange(lo, hi)
				each(md.recoverPending)
				effective = true
			default:
				// A sweep's certification: the model's repairing modules in
				// [lo, hi), every third with a stale generation, one twice.
				var mods, gens []uint64
				for m := lo; m < hi; m++ {
					if g, ok := md.gen[m]; ok {
						if len(mods)%3 == 2 {
							g += uint64(kind) - 4 // 5 or 6: off by one or two
						}
						mods, gens = append(mods, m), append(gens, g)
					}
				}
				if len(mods) > 0 {
					mods, gens = append(mods, mods[0]), append(gens, gens[0])
				}
				got = fs.CertifyBatch(mods, gens)
				for k, m := range mods {
					want += b2i(md.certify(m, gens[k]))
				}
			}
			if got != want {
				t.Fatalf("op %d (kind %d, a=%d, b=%d): moved %d modules, model says %d", i/3, ops[i]%7, a, b, got, want)
			}
			if bumped := fs.Epoch() - epoch; bumped != uint64(b2i(effective || want > 0)) {
				t.Fatalf("op %d (kind %d): epoch moved by %d after a call that moved %d modules", i/3, ops[i]%7, bumped, want)
			}
			if fs.Count() != len(md.failed) || fs.RepairCount() != len(md.gen) {
				t.Fatalf("op %d: %d failed and %d repairing, model has %d and %d", i/3, fs.Count(), fs.RepairCount(), len(md.failed), len(md.gen))
			}
			snap := fs.Snapshot()
			if snap.Epoch() != fs.Epoch() || snap.Count() != len(md.failed) || snap.RepairCount() != len(md.gen) {
				t.Fatalf("op %d: snapshot epoch %d with %d failed and %d repairing, set epoch %d, model %d and %d",
					i/3, snap.Epoch(), snap.Count(), snap.RepairCount(), fs.Epoch(), len(md.failed), len(md.gen))
			}
			var repairing []uint64
			for m := uint64(0); m < modules; m++ {
				if snap.Failed(m) != md.failed[m] || snap.RepairGen(m) != md.gen[m] || snap.Repairing(m) != (md.gen[m] != 0) {
					t.Fatalf("op %d: module %d failed=%v repairing=%v gen=%d, model failed=%v gen=%d",
						i/3, m, snap.Failed(m), snap.Repairing(m), snap.RepairGen(m), md.failed[m], md.gen[m])
				}
				if md.gen[m] != 0 {
					repairing = append(repairing, m)
				}
			}
			if got := snap.AppendRepairing(nil); !slices.Equal(got, repairing) {
				t.Fatalf("op %d: repairing listing %v, model %v", i/3, got, repairing)
			}
		}
		// One machine round: every bid to a failed module must be dropped,
		// every other bid must be eligible (some are granted).
		mach, err := NewFailingShared(Config{Procs: modules, Modules: modules}, fs)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]int64, modules)
		for p := range reqs {
			reqs[p] = Bid(p, int64(p))
		}
		liveBids := modules - len(md.failed)
		grant := make([]bool, modules)
		served := mach.Round(reqs, grant)
		if served != liveBids { // distinct modules: every live bid served
			t.Fatalf("served %d, want %d live bids", served, liveBids)
		}
		if got := int(mach.DroppedBids()); got != modules-liveBids {
			t.Fatalf("dropped %d, want %d", got, modules-liveBids)
		}
		for p, g := range grant {
			if g && md.failed[uint64(p)] {
				t.Fatalf("bid at failed module %d granted", p)
			}
		}
	})
}
