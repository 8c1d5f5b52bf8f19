package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"detshmem/internal/frontend"
)

// cacheLine is the assumed coherence-granule size. Hot fields written by
// different goroutines are kept at least this far apart so one side's
// stores do not invalidate the other side's line (pad_test.go audits the
// layout with unsafe.Offsetof).
const cacheLine = 64

// cpad is one cache line of padding between hot field groups.
type cpad [cacheLine]byte

// ringKind tags one admission-ring entry.
type ringKind uint8

const (
	ringBatch ringKind = iota // batch.ops[lo:hi] is one AccessBatch sub-batch
	ringFlush                 // ack is closed once every prior op has committed
	ringClose                 // the flusher commits what it holds and exits
)

// ringOp is the payload of one ring slot: one AccessBatch sub-batch — every
// op of the call routed to this shard, however many; a blocking Read or
// Write is a one-op batch — or a sentinel.
type ringOp struct {
	kind   ringKind
	ack    chan struct{}
	batch  *Batch
	lo, hi int32
}

// ringSlot is one cell of the ring. seq is the Vyukov-style generation
// stamp: seq == pos means the slot is free for the producer that claimed
// position pos; seq == pos+1 means the slot is published and waiting for
// the consumer; the consumer frees it by storing pos+len(slots), which is
// the claim value of the next lap. The pad rounds the slot to a whole cache
// line so adjacent slots — owned by different producers for the publish
// window — never share one. It sits mid-struct because a trailing
// zero-length field would itself be padded.
type ringSlot struct {
	seq atomic.Uint64
	_   [(cacheLine - (8+unsafe_ringOpSize)%cacheLine) % cacheLine]byte
	op  ringOp
}

// unsafe_ringOpSize is ringOp's size on 64-bit targets (1 byte of kind
// padded to 8, one channel, one pointer, two int32s). The padding-audit test
// asserts unsafe.Sizeof(ringSlot{}) is a multiple of cacheLine, which
// catches this constant going stale.
const unsafe_ringOpSize = 32

// ring is a bounded lock-free MPSC queue of entries — one AccessBatch
// sub-batch or one sentinel each: any number of producers admit entries by
// claiming positions from an atomic sequence counter; the shard's flusher
// goroutine is the only consumer. It replaces the shard admission
// mutex: an uncontended admit is one fetch-add plus one publishing store,
// whether it carries one operation or a client's whole window, and the
// consumer drains a whole published window per sweep without ever taking a
// lock.
//
// FIFO: positions are claimed in fetch-add order and the consumer pops
// them in position order, so ring order is admission order — the property
// the per-variable linearizability contract needs (commit sequence numbers
// are assigned by the consumer in pop order).
//
// Blocking happens only at the edges:
//
//   - Full ring (backpressure): the producer that claimed a not-yet-freed
//     slot spins briefly, then sleeps on fullCond until the consumer frees
//     its slot. That bounds the admitted-but-uncommitted entries, and so the
//     memory of the operations waiting behind them: a sub-batch is at most
//     its caller's window.
//   - Empty ring: the consumer sets parked and sleeps on the kick channel;
//     the producer that publishes into an empty ring CASes parked down and
//     sends one token. The parked store and the slot re-check in park(),
//     against the publish store and the parked load in wake(), form the
//     Dekker handshake that makes a lost wakeup impossible under Go's
//     sequentially-consistent atomics.
type ring struct {
	slots []ringSlot
	mask  uint64

	_    cpad
	tail atomic.Uint64 // next position to claim; producers fetch-add
	_    cpad
	head atomic.Uint64 // next position to pop; consumer-owned, producers read for depth
	_    cpad

	closed   atomic.Bool
	inflight atomic.Int64 // producers between their closed check and publish
	maxDepth atomic.Int64 // high-water occupancy in entries, for Stats.MaxQueueDepth

	parked atomic.Bool
	kick   chan struct{} // cap 1; wakes the parked consumer
	parks  atomic.Int64  // times the consumer actually blocked, for Stats.FlusherParks
	wakes  atomic.Int64  // producer kicks that un-parked the consumer, for Stats.FlusherWakes

	fullWaiters atomic.Int32 // producers asleep on a full ring
	fullMu      sync.Mutex
	fullCond    *sync.Cond
}

// newRing builds a ring with room for at least capacity entries (rounded up
// to a power of two, minimum 2).
func newRing(capacity int) *ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &ring{
		slots: make([]ringSlot, n),
		mask:  uint64(n) - 1,
		kick:  make(chan struct{}, 1),
	}
	r.fullCond = sync.NewCond(&r.fullMu)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue admits one entry: claim a position, publish the slot, wake the
// consumer if it parked. Returns frontend.ErrClosed after close — the
// inflight counter brackets the closed check and the publish, so close()
// can wait out every producer that passed the check before it claims the
// close sentinel, guaranteeing no entry lands behind the sentinel.
func (r *ring) enqueue(op ringOp) error {
	r.inflight.Add(1)
	if r.closed.Load() {
		r.inflight.Add(-1)
		return frontend.ErrClosed
	}
	pos := r.tail.Add(1) - 1
	r.publish(pos, op)
	r.inflight.Add(-1)
	r.noteDepth(pos)
	r.wake()
	return nil
}

// enqueueBatch admits the sub-batch b.ops[lo:hi] as one entry: one claimed
// position, however many operations it carries. This is what makes
// AccessBatch one atomic RMW and one slot per touched shard instead of one
// per op.
func (r *ring) enqueueBatch(b *Batch, lo, hi int32) error {
	return r.enqueue(ringOp{kind: ringBatch, batch: b, lo: lo, hi: hi})
}

// publish waits for the claimed slot to be free (previous-lap occupant
// popped), writes the payload, and hands the slot to the consumer with the
// seq store. Only the owner of pos calls this, so the wait is bounded by
// the consumer's progress, not by other producers.
func (r *ring) publish(pos uint64, op ringOp) {
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos {
		r.waitFree(s, pos)
	}
	s.op = op
	s.seq.Store(pos + 1)
}

// waitFree is publish's full-ring slow path: spin briefly (the consumer
// frees slots in batches, so the wait is usually a few sweeps), then sleep
// on fullCond. Every pass kicks the consumer before yielding: a parked
// consumer frees nothing, and a kick to one that is awake costs one load.
func (r *ring) waitFree(s *ringSlot, want uint64) {
	for spins := 0; spins < 64; spins++ {
		r.wake()
		runtime.Gosched()
		if s.seq.Load() == want {
			return
		}
	}
	r.fullWaiters.Add(1)
	r.fullMu.Lock()
	for s.seq.Load() != want {
		r.wake()
		r.fullCond.Wait()
	}
	r.fullMu.Unlock()
	r.fullWaiters.Add(-1)
}

// tryPop pops the next published entry into out. Consumer-only. The
// freeing seq store is what un-blocks a producer waiting on this slot, and
// the fullWaiters check pairs with waitFree's Add-then-check so a sleeping
// producer is never missed.
func (r *ring) tryPop(out *ringOp) bool {
	pos := r.head.Load()
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos+1 {
		return false
	}
	*out = s.op
	s.op = ringOp{} // drop batch/ack references: completed ops stay collectable
	s.seq.Store(pos + uint64(len(r.slots)))
	r.head.Store(pos + 1)
	if r.fullWaiters.Load() != 0 {
		r.fullMu.Lock()
		r.fullCond.Broadcast()
		r.fullMu.Unlock()
	}
	return true
}

// park blocks the consumer until a producer publishes. The parked store
// happens before the slot re-check; wake's publish store happens before its
// parked load — so either the re-check sees the new op, or the producer
// sees parked and sends the kick. A stale kick token (consumer un-parked
// itself on the re-check) costs one spurious wakeup, never a hang.
func (r *ring) park() {
	r.parked.Store(true)
	pos := r.head.Load()
	if r.slots[pos&r.mask].seq.Load() == pos+1 {
		r.parked.Store(false)
		return
	}
	r.parks.Add(1)
	<-r.kick
	r.parked.Store(false)
}

// wake un-parks the consumer. The CAS ensures exactly one token per park,
// so the kick channel (cap 1) never blocks a producer.
func (r *ring) wake() {
	if r.parked.Load() && r.parked.CompareAndSwap(true, false) {
		r.wakes.Add(1)
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

// close marks the ring closed, waits out producers already past their
// closed check, then claims the close sentinel. Ring order past the
// sentinel is empty by construction. Returns false if already closed.
func (r *ring) close() bool {
	if r.closed.Swap(true) {
		return false
	}
	for r.inflight.Load() != 0 {
		runtime.Gosched()
	}
	pos := r.tail.Add(1) - 1
	r.publish(pos, ringOp{kind: ringClose})
	r.wake()
	return true
}

// noteDepth tracks the high-water ring occupancy in entries.
func (r *ring) noteDepth(pos uint64) {
	d := int64(pos+1) - int64(r.head.Load())
	if d <= 0 {
		return
	}
	for {
		cur := r.maxDepth.Load()
		if d <= cur || r.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}
