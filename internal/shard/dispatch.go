package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"detshmem/internal/frontend"
	"detshmem/internal/protocol"
)

// backend is what the flusher drives: one interface call per batch, plus the
// repair pump. *protocol.System is the implementation; the interface exists
// so tests can substitute a gated fake and pin which ops land in which batch.
type backend interface {
	AccessDistinctInto(b *protocol.DistinctBatch, res *protocol.Result) error
	RepairBacklog() int
	RepairStep() bool
}

// pipeDispatcher is the per-shard dispatcher — the serving path's one
// serialization point — built on the lock-free MPSC admission ring
// (ring.go). Admission is one atomic fetch-add plus one publishing store per
// entry — one AccessBatch sub-batch, however many ops it carries: clients
// claim ring slots and return immediately with a Batch, while the flusher
// goroutine — the ring's single consumer — drains whole published windows
// per sweep, admits each entry's ops in order (admit), assigning commit
// sequence numbers and folding them into the accumulating frontend.Pending,
// and hands each flushed batch — the protocol.DistinctBatch admission built —
// to the backend's allocation-free AccessDistinctInto. A Batch completes
// once per entry: the flusher counts its WaitGroup down after the flush that
// commits the entry's last op.
//
// Linearizability per variable holds by construction: ring order is
// admission order (positions are claimed by one fetch-add and popped in
// position order, and a sub-batch's ops are admitted in their order), the
// flusher assigns sequence numbers in that order, and batches flush FIFO —
// so admission order is commit order shard-wide.
//
// Handoff: no per-flush wakeup. The flusher spins through published ops
// and only parks (park-flag + one channel token) when the ring is truly
// empty; producers kick it only on the empty→non-empty transition. Stats
// reports the ring's park and wake counts, so a workload that thrashes the
// handoff is visible.
//
// Backpressure: the ring is bounded in entries. A producer whose claimed
// slot has not been freed yet spins briefly and then sleeps until the
// consumer frees it, bounding admitted-but-uncommitted memory.
type pipeDispatcher struct {
	b backend

	numVars  uint64 // M: an op naming a variable at or past it is refused alone
	maxBatch int
	ring     *ring
	done     chan struct{} // flusher exited

	// Flusher-owned coalescing and flush scratch (single consumer, no
	// lock): the accumulating batch, the Batches whose sub-batches it holds
	// the last ops of, the commit sequence counter, and the reused Result.
	cur    *frontend.Pending
	sealed []*Batch
	seq    uint64
	res    protocol.Result

	// statsMu guards stats for Stats() readers. Padded away from the
	// flusher's scratch above: a Stats poller must not bounce the cache
	// line the flusher writes on every batch (satellite bugfix, audited by
	// pad_test.go).
	_       cpad
	statsMu sync.Mutex
	stats   frontend.Stats
}

// newPipeDispatcher builds the dispatcher over a backend serving variables
// [0, numVars) and starts its flusher. ringCap is the admission-ring
// capacity in entries (rounded up to a power of two by newRing).
func newPipeDispatcher(b backend, numVars uint64, maxBatch, ringCap int) *pipeDispatcher {
	d := &pipeDispatcher{
		b:        b,
		numVars:  numVars,
		maxBatch: maxBatch,
		ring:     newRing(ringCap),
		cur:      frontend.NewPending(maxBatch),
		done:     make(chan struct{}),
	}
	go d.run()
	return d
}

// run is the flusher: pop published entries in ring order, admit their ops
// into the accumulating batch (which flushes on size), idle-flush
// when the ring runs dry, park when there is nothing at all.
func (d *pipeDispatcher) run() {
	defer close(d.done)
	var op ringOp
	// yielded is the idle flush's one-shot backoff: when the ring runs dry
	// with a partial batch, one scheduler yield lets every currently
	// runnable submitter publish its window before the batch goes out — on a
	// loaded host this turns per-client-window batches into
	// all-runnable-clients batches — while costing nothing when no submitter
	// is runnable.
	yielded := false
	for {
		if !d.ring.tryPop(&op) {
			if d.cur.Ops() > 0 {
				if !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				d.flushCur(frontend.FlushIdle)
				yielded = false
				continue
			}
			yielded = false
			// Idle repair pump: with no client work queued, spend the slack
			// rebuilding recovered modules instead of parking. Batch traffic
			// already pumps repair inside AccessDistinctInto; this path keeps
			// the backlog draining on an otherwise quiet shard. Park only when
			// repair is drained or stalled (RepairStep false ⇒ paused until
			// the fault set changes, so spinning on it would burn a core).
			if d.b.RepairBacklog() > 0 && d.b.RepairStep() {
				continue
			}
			d.ring.park()
			continue
		}
		yielded = false
		switch op.kind {
		case ringBatch:
			ops := op.batch.ops[op.lo:op.hi]
			for i := range ops {
				d.admit(&ops[i])
			}
			// Ring order is admission order and flushes are FIFO, so the
			// flush that takes this sub-batch's last op is the last to
			// touch it: the sub-batch is done then, or now if that flush
			// already ran.
			if d.cur.Ops() == 0 {
				op.batch.done.Done()
			} else {
				d.sealed = append(d.sealed, op.batch)
			}
		case ringFlush:
			if d.cur.Ops() > 0 {
				d.flushCur(frontend.FlushExplicit)
			} else {
				// Nothing accumulated (the idle flusher already drained
				// everything ahead of the sentinel): the explicit flush is
				// still honored — and counted, so Flush-heavy callers see
				// their cause in the stats deterministically.
				d.statsMu.Lock()
				d.stats.ExplicitFlushes++
				d.statsMu.Unlock()
			}
			close(op.ack)
		case ringClose:
			if d.cur.Ops() > 0 {
				d.flushCur(frontend.FlushExplicit)
			}
			return
		}
	}
}

// admit folds one operation into the accumulating batch, in admission
// order: it takes the next commit sequence number, and flushes after when
// the batch reaches maxBatch distinct variables.
func (d *pipeDispatcher) admit(e *batchOp) {
	op := e.get()
	v := op.Var
	if v >= d.numVars {
		// Refused alone, before it takes a sequence number or a place in
		// the batch: the backend fails a whole batch on one bad variable,
		// and every op coalesced with it would share the verdict.
		e.fut.Fail(fmt.Errorf("shard: variable %d of %d: %w", v, d.numVars, protocol.ErrVarOutOfRange))
		return
	}
	d.seq++
	if op.Write {
		d.cur.Write(d.seq, v, op.Val, &e.fut)
	} else {
		d.cur.Read(d.seq, v, &e.fut)
	}
	if d.cur.Distinct() >= d.maxBatch {
		d.flushCur(frontend.FlushSize)
	}
}

// flushCur flushes the accumulating batch, resets it for reuse, and marks
// done every sub-batch whose last op it carried.
func (d *pipeDispatcher) flushCur(cause frontend.FlushCause) {
	d.flushOne(d.cur, cause)
	d.cur.Reset()
	for _, b := range d.sealed {
		b.done.Done()
	}
	clear(d.sealed)
	d.sealed = d.sealed[:0]
}

// flushOne drives one batch through the backend's allocation-free path,
// accounts it (before any Batch completes — see frontend.Stats.Account),
// and writes the results into the ops' futures. An ErrIncomplete-class
// error keeps res, so the committed requests complete normally and only the
// unfinished ones fail with their per-request verdict
// (frontend.Pending.Complete). Runs on the flusher goroutine only, so the
// res scratch needs no lock.
func (d *pipeDispatcher) flushOne(p *frontend.Pending, cause frontend.FlushCause) {
	var res *protocol.Result
	err := d.b.AccessDistinctInto(p.Batch(), &d.res)
	if err == nil || errors.Is(err, protocol.ErrIncomplete) {
		res = &d.res
	}
	d.statsMu.Lock()
	d.stats.Account(p, res, cause)
	d.statsMu.Unlock()
	p.Complete(res, err)
}

// Flush enqueues a flush sentinel and blocks until the flusher has passed
// it — at which point every operation admitted before the Flush call has
// committed (ring FIFO order).
func (d *pipeDispatcher) Flush() error {
	ack := make(chan struct{})
	if err := d.ring.enqueue(ringOp{kind: ringFlush, ack: ack}); err != nil {
		return err
	}
	<-ack
	return nil
}

// Close flushes pending work, stops the flusher, and fails later
// submissions with frontend.ErrClosed. The ring's close protocol
// guarantees no operation is admitted behind the close sentinel, so
// nothing is ever silently dropped.
func (d *pipeDispatcher) Close() error {
	if !d.ring.close() {
		return frontend.ErrClosed
	}
	<-d.done
	return nil
}

// Stats snapshots the dispatcher's cumulative stats; the ring's own
// counters (depth high-water mark, parks, wakes) are read beside them.
func (d *pipeDispatcher) Stats() frontend.Stats {
	d.statsMu.Lock()
	s := d.stats
	d.statsMu.Unlock()
	s.MaxQueueDepth = int(d.ring.maxDepth.Load())
	s.FlusherParks = d.ring.parks.Load()
	s.FlusherWakes = d.ring.wakes.Load()
	return s
}
