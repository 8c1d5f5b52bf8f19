package frontend

import (
	"errors"
	"slices"

	"detshmem/internal/protocol"
)

// This file is the combining core: the coalescing rules, the result fan-out
// and the stats accounting the dispatcher in internal/shard drives. The rules
// themselves are documented on the package.

// Pending is one batch under construction: the coalesced view of every
// operation admitted since the last flush. It is not safe for concurrent
// use; the shard dispatcher's flusher goroutine, the admission ring's single
// consumer, is the only caller — that serialization is what makes admission
// order the commit order.
//
// The batch itself is a protocol.DistinctBatch: admission adds each op's
// request to it, and the index that rejects a repeated variable is the
// lookup that finds the request the op combines with. So the flush hands
// the protocol the very list admission built (Batch), and waiters is every
// admitted op's future beside its request's position, in admission order — a
// combined, coalesced or forwarded op costs one entry and nothing else. A
// dispatcher that reuses one Pending admits and flushes without allocating
// in steady state.
type Pending struct {
	batch   protocol.DistinctBatch
	waiters []waiter // one per admitted op, so len(waiters) is Ops()
	// What combining saved in this batch, counted at admission for Stats.
	combined, coalesced, forwarded int

	// verdict is Complete's reused scratch for a degraded batch's
	// per-request errors (nil = committed).
	verdict []error
}

// NewPending returns an empty batch. capacity is the most distinct variables
// the caller lets a batch reach; the batch starts with room for at most 64
// of them and grows to the largest batch actually seen, so a dispatcher
// whose limit is the module count but whose batches hold a hundred
// variables keeps a cache-sized index.
func NewPending(capacity int) *Pending {
	return &Pending{waiters: make([]waiter, 0, min(capacity, 64))}
}

// waiter is one admitted op: its future and its request's position.
type waiter struct {
	fut *Future
	req int
}

// Distinct is the number of distinct variables in the batch — the size of
// the protocol batch a flush would issue.
func (p *Pending) Distinct() int { return p.batch.Len() }

// Ops is the number of client operations admitted into the batch.
func (p *Pending) Ops() int { return len(p.waiters) }

// Batch is the protocol batch admission built, for
// protocol.System.AccessDistinctInto. It is valid until Reset.
func (p *Pending) Batch() *protocol.DistinctBatch { return &p.batch }

// WriteConflicts reports whether admitting a write to v would break the
// batch's EREW shape: v already carries an issued read, so the write would
// either reorder that read after itself or duplicate the variable. Write
// refuses such a write; the caller must flush the batch first.
func (p *Pending) WriteConflicts(v uint64) bool {
	pos, ok := p.batch.Lookup(v)
	return ok && p.batch.Requests()[pos].Op == protocol.Read
}

// Read admits one read with commit sequence seq, combining it with an
// already-issued read or forwarding a pending write's value.
func (p *Pending) Read(seq, v uint64, fut *Future) {
	fut.seq = seq
	pos, added := p.batch.Add(protocol.Request{Var: v, Op: protocol.Read})
	if !added {
		if r := &p.batch.Requests()[pos]; r.Op == protocol.Write {
			// Read after a pending write: its value is the write's, now.
			fut.val = r.Value
			p.forwarded++
		} else {
			p.combined++
		}
	}
	p.waiters = append(p.waiters, waiter{fut, pos})
}

// Write admits one write with commit sequence seq, coalescing with an
// earlier write (last writer wins). It refuses a write that WriteConflicts,
// admitting nothing and returning false: the caller flushes and admits the
// write again into the fresh batch.
func (p *Pending) Write(seq, v, val uint64, fut *Future) bool {
	pos, added := p.batch.Add(protocol.Request{Var: v, Op: protocol.Write, Value: val})
	if !added {
		r := &p.batch.Requests()[pos]
		if r.Op != protocol.Write {
			return false
		}
		r.Value = val
		p.coalesced++
	}
	fut.seq, fut.val = seq, 0
	p.waiters = append(p.waiters, waiter{fut, pos})
	return true
}

// Requests copies the batch's protocol requests, in admission order, into
// buf's backing array when it is large enough. A dispatcher that drives
// AccessDistinctInto needs no copy: it hands over Batch.
func (p *Pending) Requests(buf []protocol.Request) []protocol.Request {
	return append(buf[:0], p.batch.Requests()...)
}

// verdicts returns a degraded batch's per-request errors — nil for the
// requests that committed, protocol.ErrQuorumUnreachable for the stranded
// ones (live copies below quorum), protocol.ErrIncomplete for those that
// merely exhausted the iteration budget — or nil when the batch is not
// degraded (it committed whole, or failed whole with err). The slice is
// reused across flushes.
func (p *Pending) verdicts(res *protocol.Result, err error) []error {
	if err == nil || res == nil || !errors.Is(err, protocol.ErrIncomplete) {
		return nil
	}
	n := p.batch.Len()
	p.verdict = slices.Grow(p.verdict[:0], n)[:n]
	clear(p.verdict)
	for _, r := range res.Metrics.Unfinished {
		p.verdict[r] = protocol.ErrIncomplete
	}
	for _, r := range res.Metrics.Stranded {
		p.verdict[r] = protocol.ErrQuorumUnreachable
	}
	return p.verdict
}

// Complete writes the backend's result (or error) into every admitted op's
// future in one pass, attributing errors per request. res holds the values
// for the batch's request order; on a whole-batch error res may be nil.
// An ErrIncomplete err with a non-nil res fails only the requests that
// missed their quorum and completes the rest normally — degraded-mode
// serving: a batch with some unreachable variables still commits its
// healthy futures (see verdicts for the per-request errors).
func (p *Pending) Complete(res *protocol.Result, err error) {
	verdict := p.verdicts(res, err)
	reqs := p.batch.Requests()
	for _, w := range p.waiters {
		reqErr := err
		if verdict != nil {
			reqErr = verdict[w.req]
		}
		switch {
		case reqErr != nil:
			// Whole-batch failure, or this request missed its quorum: every
			// waiter on the variable (forwarded reads riding a failed write
			// included) learns the error.
			w.fut.complete(0, reqErr)
		case reqs[w.req].Op == protocol.Read:
			w.fut.complete(res.Values[w.req], nil)
		default:
			// A write (val 0) or a read forwarded its value at admission.
			w.fut.complete(w.fut.val, nil)
		}
	}
}

// Reset clears the batch for reuse in time proportional to the batch, not to
// the largest one seen: the waiters are dropped, so completed futures stay
// collectable, and the protocol batch's index empties by epoch.
func (p *Pending) Reset() {
	clear(p.waiters)
	p.waiters = p.waiters[:0]
	p.batch.Reset()
	p.combined, p.coalesced, p.forwarded = 0, 0, 0
}

// Stats is the serving path's one book of dispatcher facts, summed over
// every flushed batch: what combining saved, why each batch was flushed, how
// deep the admission ring grew and how often the flusher parked. Protocol
// facts — rounds, Φ, copy accesses, retried bids, stranded and unfinished
// requests — are not kept here: the Observer and Recorder set in
// protocol.Config count them.
type Stats struct {
	Batches         int   // batches flushed, those the backend refused included
	OpsIn           int64 // client operations admitted into flushed batches
	RequestsOut     int64 // protocol requests issued
	CombinedReads   int64 // reads that shared an already-issued read
	CoalescedWrites int64 // writes absorbed by a later write to the same var
	ForwardedReads  int64 // reads served from a pending write, no request
	SizeFlushes     int64 // batches flushed at MaxBatch distinct variables
	IdleFlushes     int64 // batches flushed because the queue ran dry
	// ExplicitFlushes counts the Flush and Close sentinels that flushed a
	// batch, and also every Flush sentinel that found nothing pending (a
	// Close with nothing pending is not counted). So
	// SizeFlushes+IdleFlushes+ConflictFlushes ≤ Batches ≤
	// SizeFlushes+IdleFlushes+ConflictFlushes+ExplicitFlushes.
	ExplicitFlushes int64
	ConflictFlushes int64 // batches flushed by a write-after-read conflict
	MaxQueueDepth   int   // deepest admission ring observed at admission, in entries (an AccessBatch sub-batch each)
	FlusherParks    int64 // times the flusher blocked on an empty admission ring
	FlusherWakes    int64 // producer kicks that un-parked the flusher
	FailedBatches   int   // batches rejected by the backend outright
	// TotalRounds is the MPC rounds the flushed batches consumed.
	//
	// Deprecated: it is a protocol fact, which an obs.Collector set as
	// protocol.Config.Observer counts (Rounds, repair rounds included). It
	// is still declared because the frozen benchmark suite (bench/run.go's
	// rounds_per_op) reads it, and goes with the benchmark change that
	// reads rounds from its own observer.
	TotalRounds int64
}

// FlushCause labels why the dispatcher flushed a batch.
type FlushCause int

const (
	// FlushSize: the batch reached MaxBatch distinct variables.
	FlushSize FlushCause = iota
	// FlushIdle: the submission queue ran dry.
	FlushIdle
	// FlushExplicit: an explicit Flush or Close.
	FlushExplicit
	// FlushConflict: a write-after-issued-read conflict.
	FlushConflict
)

func (c FlushCause) String() string {
	switch c {
	case FlushSize:
		return "size"
	case FlushIdle:
		return "idle"
	case FlushExplicit:
		return "explicit"
	case FlushConflict:
		return "conflict"
	}
	return "unknown"
}

// Account folds one flushed batch into the stats; res is nil when the
// backend refused the batch outright (the convention Complete follows). The
// dispatcher must call it under the same lock its Stats snapshot takes, and
// before it publishes the batch's completion: publishing first opens a
// torn-read window where a client whose Wait returned cannot find its own
// committed operation in a snapshot (read-your-ops consistency).
func (s *Stats) Account(p *Pending, res *protocol.Result, cause FlushCause) {
	s.Batches++
	s.OpsIn += int64(p.Ops())
	s.RequestsOut += int64(p.Distinct())
	s.CombinedReads += int64(p.combined)
	s.CoalescedWrites += int64(p.coalesced)
	s.ForwardedReads += int64(p.forwarded)
	switch cause {
	case FlushIdle:
		s.IdleFlushes++
	case FlushExplicit:
		s.ExplicitFlushes++
	case FlushConflict:
		s.ConflictFlushes++
	default:
		s.SizeFlushes++
	}
	if res == nil {
		s.FailedBatches++
		return
	}
	s.TotalRounds += int64(res.Metrics.TotalRounds)
}

// Merge folds o into s: counters add, high-water marks take the max. The
// shard layer uses it to aggregate per-shard dispatcher stats into a
// service-wide view.
func (s *Stats) Merge(o Stats) {
	s.Batches += o.Batches
	s.OpsIn += o.OpsIn
	s.RequestsOut += o.RequestsOut
	s.CombinedReads += o.CombinedReads
	s.CoalescedWrites += o.CoalescedWrites
	s.ForwardedReads += o.ForwardedReads
	s.SizeFlushes += o.SizeFlushes
	s.IdleFlushes += o.IdleFlushes
	s.ExplicitFlushes += o.ExplicitFlushes
	s.ConflictFlushes += o.ConflictFlushes
	if o.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = o.MaxQueueDepth
	}
	s.FlusherParks += o.FlusherParks
	s.FlusherWakes += o.FlusherWakes
	s.FailedBatches += o.FailedBatches
	s.TotalRounds += o.TotalRounds
}

// CombiningRate is the fraction of operations that did not become protocol
// requests: 1 − RequestsOut/OpsIn. Zero when nothing combined (or nothing
// ran).
func (s Stats) CombiningRate() float64 {
	if s.OpsIn == 0 {
		return 0
	}
	return 1 - float64(s.RequestsOut)/float64(s.OpsIn)
}
