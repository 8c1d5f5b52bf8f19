package frontend

import (
	"errors"
	"math/bits"
	"slices"

	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// This file is the combining core: the coalescing rules, the result fan-out
// and the stats accounting the dispatcher in internal/shard drives. The rules
// themselves are documented on the package.

// entry is a pending batch's state for one distinct variable. Entries live
// by value in Pending.entries, entry i being request i of the flush.
type entry struct {
	v         uint64 // the variable
	val       uint64 // latest coalesced write value
	slot      uint32 // the index slot naming this entry
	write     bool   // a protocol Write will be issued for this variable
	readFuts  []*Future
	writeFuts []*Future
	fwd       []*Future // read-after-write forwarded reads
	fwdVals   []uint64  // value each forwarded read observes
}

// Pending is one batch under construction: the coalesced view of every
// operation admitted since the last flush. It is not safe for concurrent
// use; the shard dispatcher's flusher goroutine, the admission ring's single
// consumer, is the only caller — that serialization is what makes admission
// order the commit order.
//
// Entries sit in one dense slice in admission order, so everything after
// admission (Requests, Account, Complete, Reset) walks the slice and
// never looks a variable up; only admission probes the index. Entries past
// len(entries) keep their future slices' backing arrays, so a dispatcher
// that reuses one Pending admits and flushes without allocating in steady
// state.
type Pending struct {
	entries []entry
	// index maps a variable to its entry: a power-of-two table of entry
	// positions plus one (zero = empty slot), at most half full, addressed
	// by multiplicative hash with linear probing.
	index []uint32
	shift uint // 64 − log2(len(index))
	ops   int  // operations admitted (≥ len(entries) once combining bites)

	// verdict is Complete's reused scratch for a degraded batch's
	// per-request errors (nil = committed).
	verdict []error
}

// NewPending returns an empty batch. capacity is the most distinct variables
// the caller lets a batch reach; the tables start at no more than 64 of them
// and grow to the largest batch actually seen, so a dispatcher whose limit is
// the module count but whose batches hold a hundred variables keeps a
// cache-sized index.
func NewPending(capacity int) *Pending {
	size := 8
	for size < 2*min(capacity, 64) {
		size <<= 1
	}
	p := &Pending{}
	p.setIndex(size)
	return p
}

func (p *Pending) setIndex(size int) {
	p.index = make([]uint32, size)
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// Distinct is the number of distinct variables in the batch — the size of
// the protocol batch a flush would issue.
func (p *Pending) Distinct() int { return len(p.entries) }

// Ops is the number of client operations admitted into the batch.
func (p *Pending) Ops() int { return p.ops }

// find probes the index for v. It returns v's entry position, or -1 when v
// is not in the batch; slot is then the empty slot v would take.
func (p *Pending) find(v uint64) (at int, slot uint32) {
	mask := uint32(len(p.index) - 1)
	slot = uint32(v * 0x9E3779B97F4A7C15 >> p.shift)
	for {
		i := p.index[slot]
		if i == 0 {
			return -1, slot
		}
		if p.entries[i-1].v == v {
			return int(i - 1), slot
		}
		slot = (slot + 1) & mask
	}
}

// WriteConflicts reports whether admitting a write to v would break the
// batch's EREW shape: v already carries an issued read, so the write would
// either reorder that read after itself or duplicate the variable. The
// caller must flush the batch before admitting such a write.
func (p *Pending) WriteConflicts(v uint64) bool {
	at, _ := p.find(v)
	return at >= 0 && !p.entries[at].write
}

// newEntry appends an entry for v, reusing the backing arrays a previous
// batch left at that position, and names it in the index at slot.
func (p *Pending) newEntry(v uint64, slot uint32) *entry {
	n := len(p.entries)
	if n < cap(p.entries) {
		p.entries = p.entries[:n+1]
	} else {
		p.entries = append(p.entries, entry{})
	}
	e := &p.entries[n]
	e.v, e.slot = v, slot
	p.index[slot] = uint32(n + 1)
	if 2*(n+1) > len(p.index) {
		p.rehash()
	}
	return e
}

// rehash doubles the index and re-inserts every entry.
func (p *Pending) rehash() {
	p.setIndex(2 * len(p.index))
	for i := range p.entries {
		e := &p.entries[i]
		_, e.slot = p.find(e.v)
		p.index[e.slot] = uint32(i + 1)
	}
}

// Read admits one read with commit sequence seq, combining it with an
// already-issued read or forwarding a pending write's value.
func (p *Pending) Read(seq, v uint64, fut *Future) {
	fut.seq = seq
	at, slot := p.find(v)
	var e *entry
	if at < 0 {
		e = p.newEntry(v, slot)
	} else {
		e = &p.entries[at]
	}
	if e.write { // read after pending write: forward its value
		e.fwd = append(e.fwd, fut)
		e.fwdVals = append(e.fwdVals, e.val)
	} else { // the variable's first read, or one joining an issued read
		e.readFuts = append(e.readFuts, fut)
	}
	p.ops++
}

// Write admits one write with commit sequence seq, coalescing with an
// earlier write (last writer wins). Admitting a write that WriteConflicts
// panics: the dispatcher must flush first, so a miss here is a dispatcher
// bug, not a client error.
func (p *Pending) Write(seq, v, val uint64, fut *Future) {
	fut.seq = seq
	at, slot := p.find(v)
	var e *entry
	if at < 0 {
		e = p.newEntry(v, slot)
		e.write = true
	} else if e = &p.entries[at]; !e.write {
		panic("frontend: write admitted over an issued read; flush the batch first")
	}
	e.val = val
	e.writeFuts = append(e.writeFuts, fut)
	p.ops++
}

// Requests serializes the batch into protocol requests in admission order,
// reusing buf's backing array when it is large enough (the zero-alloc flush
// path hands the same buffer back every flush).
func (p *Pending) Requests(buf []protocol.Request) []protocol.Request {
	if cap(buf) < len(p.entries) {
		buf = make([]protocol.Request, 0, len(p.entries))
	}
	buf = buf[:0]
	for i := range p.entries {
		e := &p.entries[i]
		if e.write {
			buf = append(buf, protocol.Request{Var: e.v, Op: protocol.Write, Value: e.val})
		} else {
			buf = append(buf, protocol.Request{Var: e.v, Op: protocol.Read})
		}
	}
	return buf
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
	p.verdict = slices.Grow(p.verdict[:0], len(p.entries))[:len(p.entries)]
	clear(p.verdict)
	for _, r := range res.Metrics.Unfinished {
		p.verdict[r] = protocol.ErrIncomplete
	}
	for _, r := range res.Metrics.Stranded {
		p.verdict[r] = protocol.ErrQuorumUnreachable
	}
	return p.verdict
}

// Complete fans the backend's result (or error) out to every combined
// waiter, attributing errors per request. res holds the values for the
// request order Requests produced; on a whole-batch error res may be nil.
// An ErrIncomplete err with a non-nil res fails only the requests that
// missed their quorum and completes the rest normally — degraded-mode
// serving: a batch with some unreachable variables still commits its
// healthy futures (see verdicts for the per-request errors).
func (p *Pending) Complete(res *protocol.Result, err error) {
	verdict := p.verdicts(res, err)
	for i := range p.entries {
		e := &p.entries[i]
		reqErr := err
		if verdict != nil {
			reqErr = verdict[i]
		}
		switch {
		case reqErr != nil:
			// Whole-batch failure, or this request missed its quorum: every
			// waiter on the variable (including forwarded reads riding a
			// failed write) learns the error.
			for _, fut := range e.readFuts {
				fut.complete(0, reqErr)
			}
			for _, fut := range e.writeFuts {
				fut.complete(0, reqErr)
			}
			for _, fut := range e.fwd {
				fut.complete(0, reqErr)
			}
		case e.write:
			for _, fut := range e.writeFuts {
				fut.complete(0, nil)
			}
			for j, fut := range e.fwd {
				fut.complete(e.fwdVals[j], nil)
			}
		default:
			for _, fut := range e.readFuts {
				fut.complete(res.Values[i], nil)
			}
		}
	}
}

// indexSweepRatio is how many index slots per entry make Reset empty the
// index entry by entry instead of with one clear: a clear moves 4 bytes per
// slot at memset speed, an entry's slot is one scattered store.
const indexSweepRatio = 8

// Reset clears the batch for reuse. Future references are dropped so
// completed futures stay collectable; the entries keep their backing arrays
// for the next batch. A batch small against the index empties it slot by
// slot, so a small batch after a large one does not pay for the large one's
// table.
func (p *Pending) Reset() {
	sweep := indexSweepRatio*len(p.entries) < len(p.index)
	for i := range p.entries {
		e := &p.entries[i]
		clear(e.readFuts)
		clear(e.writeFuts)
		clear(e.fwd)
		e.readFuts = e.readFuts[:0]
		e.writeFuts = e.writeFuts[:0]
		e.fwd = e.fwd[:0]
		e.fwdVals = e.fwdVals[:0]
		e.write, e.val = false, 0
		if sweep {
			p.index[e.slot] = 0
		}
	}
	if !sweep {
		clear(p.index)
	}
	p.entries = p.entries[:0]
	p.ops = 0
}

// Stats aggregates combining metrics over every flushed batch. They extend
// the per-batch protocol.Metrics with the combining view: how many client
// operations entered versus how many protocol requests left.
type Stats struct {
	Batches         int   // batches flushed
	OpsIn           int64 // client operations admitted into flushed batches
	RequestsOut     int64 // protocol requests issued
	CombinedReads   int64 // reads that shared an already-issued read
	CoalescedWrites int64 // writes absorbed by a later write to the same var
	ForwardedReads  int64 // reads served from a pending write, no request
	SizeFlushes     int64 // batches flushed at MaxBatch distinct variables
	IdleFlushes     int64 // batches flushed because the queue ran dry
	ExplicitFlushes int64 // batches flushed by Flush or Close
	ConflictFlushes int64 // batches flushed by a write-after-read conflict
	MaxQueueDepth   int   // deepest admission ring observed at admission, in entries (an op or a sub-batch)
	TotalRounds     int64 // protocol MPC rounds consumed by flushed batches
	CopyAccesses    int64 // protocol copy accesses across flushed batches
	MaxPhi          int   // largest per-batch Φ (max phase iterations)
	Unfinished      int64 // requests that missed their quorum (failures)
	Stranded        int64 // requests whose live copies fell below quorum
	RetriedBids     int64 // bids re-selected onto surviving copies
	FailedBatches   int   // batches rejected by the backend outright
}

// Account folds one flushed batch into the stats. The dispatcher must call it
// under the same lock its Stats snapshot takes, and before the batch's
// futures complete: completing first opens a torn-read window where a
// client whose Wait returned cannot find its own committed operation in a
// snapshot (read-your-ops consistency).
func (s *Stats) Account(p *Pending, requestsOut int, res *protocol.Result, err error, cause obs.FlushCause) {
	s.Batches++
	s.OpsIn += int64(p.ops)
	s.RequestsOut += int64(requestsOut)
	for i := range p.entries {
		e := &p.entries[i]
		s.ForwardedReads += int64(len(e.fwd))
		if !e.write && len(e.readFuts) > 1 {
			s.CombinedReads += int64(len(e.readFuts) - 1)
		}
		if e.write && len(e.writeFuts) > 1 {
			s.CoalescedWrites += int64(len(e.writeFuts) - 1)
		}
	}
	switch cause {
	case obs.FlushIdle:
		s.IdleFlushes++
	case obs.FlushExplicit:
		s.ExplicitFlushes++
	case obs.FlushConflict:
		s.ConflictFlushes++
	default:
		s.SizeFlushes++
	}
	if res != nil {
		s.TotalRounds += int64(res.Metrics.TotalRounds)
		s.CopyAccesses += int64(res.Metrics.CopyAccesses)
		if res.Metrics.MaxIterations > s.MaxPhi {
			s.MaxPhi = res.Metrics.MaxIterations
		}
		s.Unfinished += int64(len(res.Metrics.Unfinished))
		s.Stranded += int64(len(res.Metrics.Stranded))
		s.RetriedBids += int64(res.Metrics.RetriedBids)
	}
	if err != nil && !(errors.Is(err, protocol.ErrIncomplete) && res != nil) {
		s.FailedBatches++
	}
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
	s.TotalRounds += o.TotalRounds
	s.CopyAccesses += o.CopyAccesses
	if o.MaxPhi > s.MaxPhi {
		s.MaxPhi = o.MaxPhi
	}
	s.Unfinished += o.Unfinished
	s.Stranded += o.Stranded
	s.RetriedBids += o.RetriedBids
	s.FailedBatches += o.FailedBatches
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
