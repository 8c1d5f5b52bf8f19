package mpc

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"detshmem/internal/obs"
)

// Cost returns the machine's cumulative interconnect cost: one unit per
// round (the MPC's unit-time module service).
func (m *Machine) Cost() uint64 { return m.round }

// genChunk holds the repair generations of the 64 modules of one rbits word.
// An entry is meaningful only while its module's rbits bit is set.
type genChunk [64]uint64

// faultState is one immutable snapshot of the failed-module set. Mutators
// build a fresh snapshot and publish it atomically, so Round can load one
// pointer and see a consistent set for the whole round.
//
// Besides the failed set it carries the repairing set: modules that have
// come back (RecoverPending) but whose copies have not yet been rebuilt
// from surviving majorities. Repairing modules serve bids normally — they
// count toward write quorums immediately — but the protocol layer bars them
// from read quorums until their repair epoch is certified, because their
// store may be stale (in-process recovery) or reborn empty (a wiped
// memserver restart).
//
// Snapshots share structure: a successor copies only the slices it writes
// (see edit), and the generations sit in one chunk per rbits word behind a
// pointer spine, so a mutation costs O(N/64) words plus one 64-entry chunk
// per word it re-arms — never O(|repairing|).
type faultState struct {
	epoch uint64   // bumped once per effective mutator call
	bits  []uint64 // bitmask of failed module ids
	count int      // number of failed modules
	// Repair state: a bitmask for the hot read-gating lookup plus a
	// generation per repairing module. Certification is fenced on the
	// generation, so a module wiped again mid-repair (a second restart)
	// cannot be certified by the sweep that started before the re-wipe.
	rbits  []uint64    // bitmask of repairing module ids
	rcount int         // number of repairing modules
	rgen   []*genChunk // generations (>0), one chunk per rbits word; nil where the word is empty
}

var healthyState = &faultState{}

func (s *faultState) failed(m uint64) bool {
	return m>>6 < uint64(len(s.bits)) && s.bits[m>>6]>>(m&63)&1 == 1
}

func (s *faultState) repairing(m uint64) bool {
	return m>>6 < uint64(len(s.rbits)) && s.rbits[m>>6]>>(m&63)&1 == 1
}

// gen returns module m's repair generation, 0 when m is not repairing.
func (s *faultState) gen(m uint64) uint64 {
	if !s.repairing(m) {
		return 0
	}
	return s.rgen[m>>6][m&63]
}

// FaultSnapshot is one published state of a FaultSet — its failed and
// repairing modules, their repair generations and its epoch — immutable once
// published. A caller that classifies many modules at once (the access
// protocol selecting a phase's quorums, a repair sweep sorting a chunk's
// copies) takes one snapshot and tests each module with an inlined bit test
// instead of loading the set once per query, and every test sees the same
// set. A snapshot is one pointer, cheap to copy. It comes from
// FaultSet.Snapshot; the zero value is not a snapshot.
type FaultSnapshot struct{ s *faultState }

// Failed reports whether module m is failed in the snapshot.
func (f FaultSnapshot) Failed(m uint64) bool { return f.s.failed(m) }

// Repairing reports whether module m is under repair in the snapshot.
func (f FaultSnapshot) Repairing(m uint64) bool { return f.s.repairing(m) }

// Epoch returns the mutation epoch the snapshot was published at.
func (f FaultSnapshot) Epoch() uint64 { return f.s.epoch }

// Count returns the number of failed modules.
func (f FaultSnapshot) Count() int { return f.s.count }

// RepairCount returns the number of modules under repair.
func (f FaultSnapshot) RepairCount() int { return f.s.rcount }

// RepairGen returns module m's repair generation, 0 when m is not repairing.
func (f FaultSnapshot) RepairGen(m uint64) uint64 { return f.s.gen(m) }

// AppendRepairing appends the modules under repair to buf in increasing
// order and returns the extended slice.
func (f FaultSnapshot) AppendRepairing(buf []uint64) []uint64 {
	for w, word := range f.s.rbits {
		for word != 0 {
			buf = append(buf, uint64(w)<<6|uint64(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return buf
}

// FaultSet is a dynamic crash-fault model for memory modules: a set of
// failed module ids that can be mutated at any time, including concurrently
// with Failing.Round. Mutations are serialized by a mutex and published as
// immutable epoch-stamped snapshots through an atomic pointer; a round loads
// exactly one snapshot, so it observes a single consistent fault set (a
// Fail landing mid-round takes effect at the next round, exactly like a bank
// crashing between synchronous MPC steps). The range and batch mutators
// publish one snapshot and bump the epoch once however many modules they
// move, so no round can observe a server's range half-applied.
//
// One FaultSet may be shared by many Failing machines — that is how a
// sharded deployment models one physical bank failure hitting every shard's
// view at once. Snapshot and CertifyBatch are the access protocol's
// FaultView and RepairView, which the machines embedding a set (Failing,
// netmpc.Client) hand the protocol as they are; the protocol classifies a
// pass's copies against one snapshot. Every per-module read goes through a
// Snapshot too, so two reads of one snapshot never straddle a mutation;
// Epoch, Count and RepairCount each read one value of the current one.
type FaultSet struct {
	mu    sync.Mutex
	state atomic.Pointer[faultState]
	// genSeq mints repair generations (guarded by mu). It never resets, so
	// every RecoverPending — including a re-arm of a module already under
	// repair — gets a generation no earlier sweep could have captured.
	genSeq uint64
}

// NewFaultSet builds a fault set with the given modules already failed.
func NewFaultSet(failed ...uint64) *FaultSet {
	fs := &FaultSet{}
	fs.state.Store(healthyState)
	for _, m := range failed {
		fs.Fail(m)
	}
	return fs
}

// moduleState is a module's position in the fail/repair lifecycle.
type moduleState uint8

const (
	stFailed moduleState = iota
	stRepairing
)

// edit is a successor snapshot under construction (under FaultSet.mu).
// Every slice starts shared with the current snapshot and is copied the
// first time the edit writes to it.
type edit struct {
	next                      faultState
	ownBits, ownRbits, ownGen bool
}

// private returns s with room for index w, as a copy the edit owns.
func private[T any](s []T, owned *bool, w int) []T {
	if *owned && w < len(s) {
		return s
	}
	c := make([]T, max(len(s), w+1))
	copy(c, s)
	*owned = true
	return c
}

// fail marks word w's modules in mask failed and out of repair, returning
// how many were not failed before.
func (e *edit) fail(w int, mask uint64) int {
	newly := mask
	if w < len(e.next.bits) {
		newly &^= e.next.bits[w]
	}
	if newly == 0 {
		return 0 // failed modules are never repairing
	}
	e.next.bits = private(e.next.bits, &e.ownBits, w)
	e.next.bits[w] |= newly
	e.next.count += bits.OnesCount64(newly)
	e.clearRepairing(w, mask)
	return bits.OnesCount64(newly)
}

// clearFailed returns word w's modules in mask to service, returning how
// many were failed.
func (e *edit) clearFailed(w int, mask uint64) int {
	if w >= len(e.next.bits) || e.next.bits[w]&mask == 0 {
		return 0
	}
	clr := e.next.bits[w] & mask
	e.next.bits = private(e.next.bits, &e.ownBits, w)
	e.next.bits[w] &^= clr
	e.next.count -= bits.OnesCount64(clr)
	return bits.OnesCount64(clr)
}

// clearRepairing takes word w's modules in mask out of repair, returning
// how many were repairing. An emptied word drops its generation chunk.
func (e *edit) clearRepairing(w int, mask uint64) int {
	if w >= len(e.next.rbits) || e.next.rbits[w]&mask == 0 {
		return 0
	}
	clr := e.next.rbits[w] & mask
	e.next.rbits = private(e.next.rbits, &e.ownRbits, w)
	e.next.rbits[w] &^= clr
	e.next.rcount -= bits.OnesCount64(clr)
	if e.next.rbits[w] == 0 {
		e.next.rgen = private(e.next.rgen, &e.ownGen, w)
		e.next.rgen[w] = nil
	}
	return bits.OnesCount64(clr)
}

// arm moves word w's modules in mask into repair, minting each a fresh
// generation from seq, and returns how many were not repairing before.
// Each word is armed at most once per edit, so the chunk is always copied.
func (e *edit) arm(seq *uint64, w int, mask uint64) int {
	e.clearFailed(w, mask)
	e.next.rbits = private(e.next.rbits, &e.ownRbits, w)
	newly := mask &^ e.next.rbits[w]
	e.next.rbits[w] |= mask
	e.next.rcount += bits.OnesCount64(newly)
	e.next.rgen = private(e.next.rgen, &e.ownGen, w)
	chunk := new(genChunk)
	if old := e.next.rgen[w]; old != nil {
		*chunk = *old
	}
	e.next.rgen[w] = chunk
	for b := mask; b != 0; b &= b - 1 {
		*seq++
		chunk[bits.TrailingZeros64(b)] = *seq
	}
	return bits.OnesCount64(newly)
}

// begin opens an edit of the current snapshot. The caller holds fs.mu.
func (fs *FaultSet) begin() edit { return edit{next: *fs.snapshot()} }

// publish installs the edit as the next snapshot, one epoch on.
func (fs *FaultSet) publish(e *edit) {
	next := e.next
	next.epoch++
	fs.state.Store(&next)
}

// wordMask returns the bits of bitmask word w that fall in [lo, hi); w must
// be a word the range touches.
func wordMask(w int, lo, hi uint64) uint64 {
	base := uint64(w) << 6
	mask := ^uint64(0)
	if lo > base {
		mask <<= lo - base
	}
	if hi < base+64 {
		mask &= 1<<(hi-base) - 1
	}
	return mask
}

// mutateRange publishes one snapshot moving modules [lo, hi) to the target
// state and returns how many changed visible state. A transition to
// stRepairing always takes effect (it re-arms the repair generation even of
// modules already repairing).
func (fs *FaultSet) mutateRange(lo, hi uint64, target moduleState) int {
	if lo >= hi {
		return 0
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e := fs.begin()
	moved := 0
	for w := int(lo >> 6); w <= int((hi-1)>>6); w++ {
		mask := wordMask(w, lo, hi)
		switch target {
		case stFailed:
			moved += e.fail(w, mask)
		case stRepairing:
			moved += e.arm(&fs.genSeq, w, mask)
		}
	}
	if moved > 0 || target == stRepairing {
		fs.publish(&e)
	}
	return moved
}

// Fail marks module m as crashed; bids addressed to it are dropped from the
// next round on. A repairing module that fails leaves the repairing set (its
// in-flight repair sweep can no longer certify it). It reports whether the
// set changed (false if m was already failed). Safe to call concurrently
// with Round.
func (fs *FaultSet) Fail(m uint64) bool { return fs.mutateRange(m, m+1, stFailed) > 0 }

// RecoverPending moves module m into the repairing state: it serves bids
// again from the next round on (write quorums count it immediately), but
// stays barred from read quorums until the repair scheduler rebuilds its
// copies from surviving majorities and certifies it (Certify). Calling it
// on a module already under repair re-arms the repair generation — the
// transition a wiped server restarting twice mid-repair needs. It reports
// whether m was newly moved into the repairing state (false on a re-arm).
// Safe to call concurrently with Round.
func (fs *FaultSet) RecoverPending(m uint64) bool { return fs.mutateRange(m, m+1, stRepairing) > 0 }

// FailRange is Fail over the contiguous modules [lo, hi) — a server's whole
// range — as one snapshot and one epoch bump. It returns the number of
// modules newly failed.
func (fs *FaultSet) FailRange(lo, hi uint64) int { return fs.mutateRange(lo, hi, stFailed) }

// RecoverPendingRange is RecoverPending over [lo, hi) as one snapshot: every
// module of the range gets a fresh generation (re-arming those already
// repairing). It returns the number of modules newly under repair.
func (fs *FaultSet) RecoverPendingRange(lo, hi uint64) int {
	return fs.mutateRange(lo, hi, stRepairing)
}

// Certify completes module m's repair: if m is still repairing with the
// given generation, it becomes fully live (readable) again. A stale
// generation — the module failed or was re-armed after the caller's sweep
// began — leaves the state untouched, so a certification can never leak a
// store the sweep did not actually rebuild. It reports whether m was
// certified. Safe to call concurrently with Round.
func (fs *FaultSet) Certify(m, gen uint64) bool {
	return fs.CertifyBatch([]uint64{m}, []uint64{gen}) == 1
}

// CertifyBatch is Certify over a sweep's (mods[i], gens[i]) pairs as one
// snapshot and one epoch bump: every module still repairing at its paired
// generation becomes fully live, stale pairs are skipped. It returns the
// number of modules certified. The slices must have equal length.
func (fs *FaultSet) CertifyBatch(mods, gens []uint64) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e := fs.begin()
	certified := 0
	for i, m := range mods {
		if g := e.next.gen(m); g != 0 && g == gens[i] {
			certified += e.clearRepairing(int(m>>6), 1<<(m&63))
		}
	}
	if certified > 0 {
		fs.publish(&e)
	}
	return certified
}

// RepairCount returns the number of modules currently under repair.
func (fs *FaultSet) RepairCount() int { return fs.snapshot().rcount }

// Snapshot returns the set's current published state. Later mutations
// publish new snapshots and leave this one as it is.
func (fs *FaultSet) Snapshot() FaultSnapshot { return FaultSnapshot{fs.snapshot()} }

// snapshot returns the current immutable state (never nil).
func (fs *FaultSet) snapshot() *faultState {
	if s := fs.state.Load(); s != nil {
		return s
	}
	return healthyState
}

// Epoch returns the mutation epoch: it increases on every effective Fail,
// RecoverPending or Certify, so a caller can cheaply detect "the fault set
// changed since I last looked" without comparing sets.
func (fs *FaultSet) Epoch() uint64 { return fs.snapshot().epoch }

// Count returns the number of currently failed modules.
func (fs *FaultSet) Count() int { return fs.snapshot().count }

// Failing wraps a machine so that failed modules never serve any request:
// bids addressed to them are withdrawn (turned Idle) before arbitration,
// and counted so instrumentation can balance issued bids against served-or-
// dropped exactly. It models crash-faulty memory banks; the majority-quorum
// protocol running above tolerates any failure pattern that leaves every
// accessed variable a full quorum of live copies (for the PP scheme,
// Theorem 2 implies any two failed modules can disable at most one
// variable).
//
// The fault set is dynamic: its mutators may be called at any time, from
// any goroutine, concurrently with Round. Round snapshots the set once per
// round, so each round sees one consistent failure pattern.
//
// Failing embeds its *FaultSet, whose Snapshot and CertifyBatch are
// protocol.FaultView and protocol.RepairView — what unlocks the access
// protocol's quorum re-selection, retry and repair behaviour. A caller that
// selects its bids against a snapshot may also play rounds in place on the
// inner machine (InPlace), as the access protocol does for a phase's first
// round.
type Failing struct {
	*FaultSet
	inner   *Machine
	scratch []int64 // the bid list with its dropped bids Idle, reused

	dropped atomic.Uint64 // cumulative bids dropped at failed modules
	// roundDropped is the drop count of the round Round is executing, 0
	// outside it; the drop annotator copies it into the round's obs event.
	// Written by Round and read by the recorder callback on the same
	// goroutine (recorders run synchronously inside inner.Round).
	roundDropped int
}

// dropAnnotator wraps the user's recorder so every RoundEvent that passes
// through a Failing machine carries the round's dropped-bid count; without
// it, bids silently swallowed by failed modules would make the trace totals
// (Σ event requests vs. Σ protocol issued bids) diverge under faults.
type dropAnnotator struct {
	inner obs.Recorder
	f     *Failing
}

func (d *dropAnnotator) Enabled() bool { return d.inner.Enabled() }

func (d *dropAnnotator) RecordRound(ev obs.RoundEvent) {
	ev.Dropped = d.f.roundDropped
	d.inner.RecordRound(ev)
}

// NewFailing builds a failing wrapper over a fresh machine with its own
// fault set, seeded with the given failed modules. The set remains mutable
// through the embedded FaultSet.
func NewFailing(cfg Config, failed []uint64) (*Failing, error) {
	for _, j := range failed {
		if j >= uint64(cfg.Modules) {
			return nil, fmt.Errorf("mpc: failed module %d out of range [0,%d)", j, cfg.Modules)
		}
	}
	return NewFailingShared(cfg, NewFaultSet(failed...))
}

// NewFailingShared builds a failing wrapper over a fresh machine that
// consults the caller's fault set — share one set across machines to model
// one failure pattern seen by several shards. A shared set has one repair
// state: a module re-admitted through RecoverPending is certified by
// whichever system's sweep finishes first, though a shard's sweep rebuilds
// only the variables that shard owns, so the other shards' copies on it may
// be certified unrebuilt (ROADMAP item 14).
func NewFailingShared(cfg Config, fs *FaultSet) (*Failing, error) {
	if fs == nil {
		fs = NewFaultSet()
	}
	f := &Failing{FaultSet: fs}
	if cfg.Recorder != nil && cfg.Recorder != obs.Nop {
		cfg.Recorder = &dropAnnotator{inner: cfg.Recorder, f: f}
	}
	inner, err := New(cfg)
	if err != nil {
		return nil, err
	}
	f.inner = inner
	return f, nil
}

// DroppedBids returns the cumulative number of bids dropped because they
// addressed a failed module.
func (f *Failing) DroppedBids() uint64 { return f.dropped.Load() }

// Round withdraws the bids at failed modules and runs the inner round. The
// fault set is sampled once, so the whole round sees one consistent failure
// pattern even while the set's mutators run concurrently. A round that drops
// nothing hands the caller's list through; otherwise the list is copied into
// a scratch of its length with each dropped bid Idle in its place, so
// grant[i] still answers bid i.
func (f *Failing) Round(bids []int64, grant []bool) int {
	st := f.snapshot()
	out, dropped := bids, 0
	if st.count != 0 {
		for i, b := range bids {
			if b == Idle || !st.failed(uint64(BidModule(b))) {
				continue
			}
			if dropped == 0 {
				f.scratch = append(f.scratch[:0], bids...)
				out = f.scratch
			}
			out[i] = Idle
			dropped++
		}
		if dropped != 0 {
			f.dropped.Add(uint64(dropped))
		}
	}
	f.roundDropped = dropped
	served := f.inner.Round(out, grant)
	f.roundDropped = 0
	return served
}

// InPlace returns the inner machine, for rounds played in place (OpenRound,
// Claim, CloseRound) by a caller that has kept its claims off the modules
// failed in a snapshot it took (Snapshot). Such a round sees that snapshot's
// fault set, as Round sees the one it loads, and drops nothing: its
// obs.RoundEvent carries Dropped 0, so a trace still balances issued bids
// against served and dropped ones. The machine may be kept and reused
// across rounds, Round's among them.
func (f *Failing) InPlace() *Machine { return f.inner }

// Cost delegates to the inner machine.
func (f *Failing) Cost() uint64 { return f.inner.Cost() }
