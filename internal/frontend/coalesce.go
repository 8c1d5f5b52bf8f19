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
// combined, coalesced, forwarded or upgrading op costs one entry and nothing
// else. A dispatcher that reuses one Pending admits and flushes without
// allocating in steady state.
type Pending struct {
	batch   protocol.DistinctBatch
	waiters []waiter // one per admitted op, so len(waiters) is Ops()
	// What combining saved in this batch, counted at admission for Stats.
	combined, coalesced, forwarded, upgraded int

	// verdict is Complete's reused scratch for a degraded batch's
	// per-request verdicts.
	verdict []verdict
}

// verdict is one request's outcome in a degraded batch: err is nil when it
// committed, and wrote marks a ReadWrite whose write committed although its
// read was refused (protocol.Metrics.ReadRefused).
type verdict struct {
	err   error
	wrote bool
}

// NewPending returns an empty batch. capacity is the most distinct variables
// the caller lets a batch reach; the batch starts with room for at most 64
// of them and grows to the largest batch actually seen, so a dispatcher
// whose limit is the module count but whose batches hold a hundred
// variables keeps a cache-sized index.
func NewPending(capacity int) *Pending {
	return &Pending{waiters: make([]waiter, 0, min(capacity, 64))}
}

// waiter is one admitted op: its future, its request's position, and
// whether it takes the value the request reads — a read admitted before any
// write to its variable — rather than its future's own (a write's zero, or
// a forwarded read's value).
type waiter struct {
	fut  *Future
	req  int32
	read bool
}

// Distinct is the number of distinct variables in the batch — the size of
// the protocol batch a flush would issue.
func (p *Pending) Distinct() int { return p.batch.Len() }

// Ops is the number of client operations admitted into the batch.
func (p *Pending) Ops() int { return len(p.waiters) }

// Batch is the protocol batch admission built, for
// protocol.System.AccessDistinctInto. It is valid until Reset.
func (p *Pending) Batch() *protocol.DistinctBatch { return &p.batch }

// WriteConflicts reports false: every write joins the batch.
//
// Deprecated: a write after an issued read of its variable upgrades the read
// to one protocol.ReadWrite request instead of conflicting with it. It is
// still declared because the frozen benchmark suite (bench/replay.go) calls
// it, and goes with the next change to that suite.
func (p *Pending) WriteConflicts(v uint64) bool { return false }

// Read admits one read with commit sequence seq, combining it with an
// already-issued read or forwarding a pending write's value.
func (p *Pending) Read(seq, v uint64, fut *Future) {
	fut.seq = seq
	pos, added := p.batch.Add(protocol.Request{Var: v, Op: protocol.Read})
	read := true
	if !added {
		if r := &p.batch.Requests()[pos]; r.Op != protocol.Read {
			// Read after a pending write: its value is the write's, now.
			fut.val = r.Value
			read = false
			p.forwarded++
		} else {
			p.combined++
		}
	}
	p.waiters = append(p.waiters, waiter{fut, int32(pos), read})
}

// Write admits one write with commit sequence seq. It coalesces with an
// earlier write (last writer wins), and turns an issued read of its variable
// into one protocol.ReadWrite request: the reads admitted before it take the
// value the variable held before the batch, those after it are forwarded
// its value.
func (p *Pending) Write(seq, v, val uint64, fut *Future) {
	pos, added := p.batch.Add(protocol.Request{Var: v, Op: protocol.Write, Value: val})
	if !added {
		r := &p.batch.Requests()[pos]
		if r.Op == protocol.Read {
			r.Op = protocol.ReadWrite
			p.upgraded++
		} else {
			p.coalesced++
		}
		r.Value = val
	}
	fut.seq, fut.val = seq, 0
	p.waiters = append(p.waiters, waiter{fut, int32(pos), false})
}

// Requests copies the batch's protocol requests, in admission order, into
// buf's backing array when it is large enough. A dispatcher that drives
// AccessDistinctInto needs no copy: it hands over Batch.
func (p *Pending) Requests(buf []protocol.Request) []protocol.Request {
	return append(buf[:0], p.batch.Requests()...)
}

// verdicts returns a degraded batch's per-request verdicts — no error for
// the requests that committed, protocol.ErrQuorumUnreachable for the
// stranded ones (live copies below quorum), protocol.ErrIncomplete for those
// that merely exhausted the iteration budget or whose read waits for repair
// — or nil when the batch is not degraded (it committed whole, or failed
// whole with err). The slice is reused across flushes.
func (p *Pending) verdicts(res *protocol.Result, err error) []verdict {
	if err == nil || res == nil || !errors.Is(err, protocol.ErrIncomplete) {
		return nil
	}
	n := p.batch.Len()
	p.verdict = slices.Grow(p.verdict[:0], n)[:n]
	clear(p.verdict)
	for _, r := range res.Metrics.Unfinished {
		p.verdict[r].err = protocol.ErrIncomplete
	}
	for _, r := range res.Metrics.Stranded {
		p.verdict[r].err = protocol.ErrQuorumUnreachable
	}
	for _, r := range res.Metrics.ReadRefused {
		p.verdict[r].wrote = true
	}
	return p.verdict
}

// Complete writes the backend's result (or error) into every admitted op's
// future in one pass, attributing errors per request. res holds the values
// for the batch's request order; on a whole-batch error res may be nil.
// An ErrIncomplete err with a non-nil res fails only the requests that
// missed their quorum and completes the rest normally — degraded-mode
// serving: a batch with some unreachable variables still commits its
// healthy futures (see verdicts for the per-request errors). A ReadWrite
// whose read was refused fails only the reads admitted before its first
// write; its writes and the reads forwarded their values commit.
func (p *Pending) Complete(res *protocol.Result, err error) {
	verdict := p.verdicts(res, err)
	for _, w := range p.waiters {
		reqErr := err
		if verdict != nil {
			v := verdict[w.req]
			reqErr = v.err
			if v.wrote && !w.read {
				reqErr = nil
			}
		}
		switch {
		case reqErr != nil:
			// Whole-batch failure, or this request missed its quorum: every
			// waiter on the variable (forwarded reads riding a failed write,
			// and the reads a failed read-write carried, included) learns
			// the error.
			w.fut.complete(0, reqErr)
		case w.read:
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
	p.combined, p.coalesced, p.forwarded, p.upgraded = 0, 0, 0, 0
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
	// UpgradedWrites counts writes that joined an issued read of their
	// variable, making it one ReadWrite request. So OpsIn = RequestsOut +
	// CombinedReads + CoalescedWrites + ForwardedReads + UpgradedWrites.
	UpgradedWrites int64
	SizeFlushes    int64 // batches flushed at the size threshold (N distinct variables)
	IdleFlushes    int64 // batches flushed because the queue ran dry
	// ExplicitFlushes counts the Flush and Close sentinels that flushed a
	// batch, and also every Flush sentinel that found nothing pending (a
	// Close with nothing pending is not counted). So
	// SizeFlushes+IdleFlushes ≤ Batches ≤
	// SizeFlushes+IdleFlushes+ExplicitFlushes.
	ExplicitFlushes int64
	// ConflictFlushes is always zero.
	//
	// Deprecated: a write after an issued read upgrades the read to a
	// ReadWrite request (UpgradedWrites) instead of flushing the batch. It
	// is still declared because the frozen benchmark suite (bench/layers.go)
	// reads it, and goes with the next change to that suite.
	ConflictFlushes int64
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
	// FlushSize: the batch reached the size threshold (N distinct variables).
	FlushSize FlushCause = iota
	// FlushIdle: the submission queue ran dry.
	FlushIdle
	// FlushExplicit: an explicit Flush or Close.
	FlushExplicit
)

func (c FlushCause) String() string {
	switch c {
	case FlushSize:
		return "size"
	case FlushIdle:
		return "idle"
	case FlushExplicit:
		return "explicit"
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
	s.UpgradedWrites += int64(p.upgraded)
	switch cause {
	case FlushIdle:
		s.IdleFlushes++
	case FlushExplicit:
		s.ExplicitFlushes++
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
	s.UpgradedWrites += o.UpgradedWrites
	s.SizeFlushes += o.SizeFlushes
	s.IdleFlushes += o.IdleFlushes
	s.ExplicitFlushes += o.ExplicitFlushes
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
