package shard

import (
	"sync"
	"sync/atomic"

	"detshmem/internal/frontend"
)

// entryKind tags one admission-queue entry.
type entryKind uint8

const (
	entryBatch entryKind = iota // batch.ops[lo:hi] is one AccessBatch sub-batch
	entryFlush                  // ack is closed once every prior op has committed
	entryClose                  // the flusher commits what it holds and exits
)

// entry is one AccessBatch sub-batch — every op of the call routed to this
// shard; a blocking Read or Write is a one-op batch — or a sentinel.
type entry struct {
	kind   entryKind
	ack    chan struct{}
	batch  *Batch
	lo, hi int32
}

// queue is a shard's bounded FIFO of entries: producers append under mu, a
// client once per window per shard, and the flusher pops them in that order,
// so queue order is admission order — and commit order, as the flusher
// assigns commit sequence numbers in pop order. The flusher takes the whole
// queue once per sweep, swapping in the buffer it has drained, and pops what
// it took with no lock. A producer waits on notFull while the queue holds cap
// entries, so at most 2·cap+1 (taken, queued, close sentinel) are admitted
// and unpopped, bounding the memory of the ops behind them. The flusher waits
// on notEmpty, and a producer that appends while it waits signals it.
type queue struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	items    []entry // admitted, not yet taken by the flusher
	cap      int
	closed   bool
	parked   bool // the flusher waits on notEmpty

	// Flusher-owned: the entries the last sweep took and the next to pop.
	taken []entry
	next  int

	// Read by Stats without the lock.
	maxDepth atomic.Int64 // high-water len(items): Stats.MaxQueueDepth
	parks    atomic.Int64 // times the flusher blocked: Stats.FlusherParks
	wakes    atomic.Int64 // appends that woke it: Stats.FlusherWakes
}

// newQueue builds a queue that holds up to capacity entries (at least one).
// Its two buffers grow with the deepest queue seen, not up front.
func newQueue(capacity int) *queue {
	q := &queue{cap: max(capacity, 1)}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// enqueue admits one entry, waiting while the queue is full. Returns
// frontend.ErrClosed after close: the closed check and the append share the
// lock with close's own append, so no entry lands behind the close sentinel.
func (q *queue) enqueue(e entry) error {
	q.mu.Lock()
	for len(q.items) >= q.cap && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return frontend.ErrClosed
	}
	q.push(e)
	q.mu.Unlock()
	return nil
}

// enqueueBatch admits the sub-batch b.ops[lo:hi] as one entry.
func (q *queue) enqueueBatch(b *Batch, lo, hi int32) error {
	return q.enqueue(entry{kind: entryBatch, batch: b, lo: lo, hi: hi})
}

// push appends e, records the depth and wakes a parked flusher. The caller
// holds mu, so the high-water mark needs no compare-and-swap.
func (q *queue) push(e entry) {
	q.items = append(q.items, e)
	if d := int64(len(q.items)); d > q.maxDepth.Load() {
		q.maxDepth.Store(d)
	}
	if q.parked {
		q.parked = false
		q.wakes.Add(1)
		q.notEmpty.Signal()
	}
}

// tryPop pops the next entry into out, taking the whole queue once the last
// take is used up. Flusher-only.
func (q *queue) tryPop(out *entry) bool {
	if q.next == len(q.taken) {
		q.take()
		if len(q.taken) == 0 {
			return false
		}
	}
	*out = q.taken[q.next]
	q.taken[q.next] = entry{} // drop batch/ack references: completed ops stay collectable
	q.next++
	return true
}

// take swaps the drained taken buffer for the queue's items and wakes any
// producer waiting on the full queue.
func (q *queue) take() {
	q.mu.Lock()
	q.taken, q.items = q.items, q.taken[:0]
	q.next = 0
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// park blocks the flusher until the queue holds an entry.
func (q *queue) park() {
	q.mu.Lock()
	for len(q.items) == 0 {
		q.parked = true
		q.parks.Add(1)
		q.notEmpty.Wait()
	}
	q.parked = false
	q.mu.Unlock()
}

// close appends the close sentinel, past a full queue's cap, and fails every
// later or waiting enqueue. Returns false if already closed.
func (q *queue) close() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.closed = true
	q.push(entry{kind: entryClose})
	q.notFull.Broadcast()
	return true
}
