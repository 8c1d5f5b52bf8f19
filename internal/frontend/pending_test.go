package frontend

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"detshmem/internal/protocol"
)

// refEntry and refPending are the reference model FuzzPending holds Pending
// against: the combining rules over a plain Go map, nothing reused.
type refEntry struct {
	write              bool
	val                uint64
	reads, writes, fwd []*Future
	fwdSeen            []uint64 // the value each forwarded read observed
}

type refPending struct {
	m     map[uint64]*refEntry
	order []uint64
	ops   int
}

func (r *refPending) conflicts(v uint64) bool {
	e := r.m[v]
	return e != nil && !e.write
}

func (r *refPending) entry(v uint64) (*refEntry, bool) {
	e := r.m[v]
	if e != nil {
		return e, false
	}
	e = &refEntry{}
	r.m[v] = e
	r.order = append(r.order, v)
	return e, true
}

func (r *refPending) read(v uint64, fut *Future) {
	e, fresh := r.entry(v)
	if !fresh && e.write {
		e.fwd = append(e.fwd, fut)
		e.fwdSeen = append(e.fwdSeen, e.val)
	} else {
		e.reads = append(e.reads, fut)
	}
	r.ops++
}

func (r *refPending) writeOp(v, val uint64, fut *Future) {
	e, fresh := r.entry(v)
	if fresh {
		e.write = true
	}
	e.val = val
	e.writes = append(e.writes, fut)
	r.ops++
}

// pendingHarness drives one Pending and the model through the same script.
type pendingHarness struct {
	t     *testing.T
	p     *Pending
	ref   refPending
	mem   map[uint64]uint64 // what the fake backend holds
	stats Stats
	reqs  []protocol.Request
	seq   uint64
}

// flushMode selects the backend's answer to a flush.
type flushMode int

const (
	flushOK flushMode = iota
	flushFailed
	flushDegraded
)

var errBackend = errors.New("backend down")

// A future is admitted holding a sentinel result, so one Complete leaves
// unwritten shows as the sentinel.
const unwrittenVal = 0xdeadbeef

var errUnwritten = errors.New("future never completed")

func newSentinelFuture() *Future { return &Future{val: unwrittenVal, err: errUnwritten} }

// flush checks Requests, Account, Complete and Reset against the
// model. In a degraded flush request i is unfinished when (i+salt)%3 == 0 and
// stranded when (i+salt)%6 == 0.
func (h *pendingHarness) flush(mode flushMode, salt int) {
	t, p, ref := h.t, h.p, &h.ref
	if p.Distinct() != len(ref.order) || p.Ops() != ref.ops {
		t.Fatalf("Distinct/Ops = %d/%d, model %d/%d", p.Distinct(), p.Ops(), len(ref.order), ref.ops)
	}
	h.reqs = p.Requests(h.reqs)
	if !slices.Equal(h.reqs, p.Batch().Requests()) {
		t.Fatalf("Requests = %v, Batch = %v", h.reqs, p.Batch().Requests())
	}
	distinct := make(map[uint64]bool, len(h.reqs))
	for _, r := range h.reqs {
		if distinct[r.Var] {
			t.Fatalf("variable %d requested twice in one flushed batch %v", r.Var, h.reqs)
		}
		distinct[r.Var] = true
	}
	want := make([]protocol.Request, len(ref.order))
	for i, v := range ref.order {
		if e := ref.m[v]; e.write {
			want[i] = protocol.Request{Var: v, Op: protocol.Write, Value: e.val}
		} else {
			want[i] = protocol.Request{Var: v, Op: protocol.Read}
		}
	}
	if !slices.Equal(h.reqs, want) {
		t.Fatalf("Requests = %v\nmodel    = %v", h.reqs, want)
	}

	// The fake backend's answer, and per request the error the model expects.
	var (
		res     *protocol.Result
		err     error
		verdict = make([]error, len(want))
	)
	if mode == flushFailed {
		err = errBackend
		for i := range verdict {
			verdict[i] = errBackend
		}
	} else {
		res = &protocol.Result{Values: make([]uint64, len(want))}
		res.Metrics.TotalRounds = 3 + salt%5
		for i := range want {
			if mode == flushDegraded && (i+salt)%3 == 0 {
				res.Metrics.Unfinished = append(res.Metrics.Unfinished, i)
				verdict[i] = protocol.ErrIncomplete
				if (i+salt)%6 == 0 {
					res.Metrics.Stranded = append(res.Metrics.Stranded, i)
					verdict[i] = protocol.ErrQuorumUnreachable
				}
			}
		}
		if len(res.Metrics.Unfinished) > 0 {
			err = fmt.Errorf("%w: degraded", protocol.ErrIncomplete)
		}
		for i, rq := range want {
			switch {
			case verdict[i] != nil:
			case rq.Op == protocol.Write:
				h.mem[rq.Var] = rq.Value
			default:
				res.Values[i] = h.mem[rq.Var]
			}
		}
	}

	// Stats: the model's delta against Account's.
	wantStats := h.stats
	wantStats.Batches++
	wantStats.OpsIn += int64(ref.ops)
	wantStats.RequestsOut += int64(len(want))
	wantStats.ExplicitFlushes++
	for _, v := range ref.order {
		e := ref.m[v]
		wantStats.ForwardedReads += int64(len(e.fwd))
		if !e.write {
			wantStats.CombinedReads += int64(len(e.reads) - 1)
		} else {
			wantStats.CoalescedWrites += int64(len(e.writes) - 1)
		}
	}
	if res != nil {
		wantStats.TotalRounds += int64(res.Metrics.TotalRounds)
	} else {
		wantStats.FailedBatches++
	}
	h.stats.Account(p, res, FlushExplicit)
	if h.stats != wantStats {
		t.Fatalf("Stats = %+v\nmodel = %+v", h.stats, wantStats)
	}

	// Complete writes every admitted future exactly once: each waits in the
	// batch once, on its variable's request, and ends holding the model's
	// result rather than its sentinel.
	waitsOn := make(map[*Future]int, len(p.waiters))
	for _, w := range p.waiters {
		if _, twice := waitsOn[w.fut]; twice {
			t.Fatalf("a future of request %d waits twice in one batch", w.req)
		}
		waitsOn[w.fut] = w.req
	}
	if len(waitsOn) != ref.ops {
		t.Fatalf("%d futures wait on the batch, model %d", len(waitsOn), ref.ops)
	}
	p.Complete(res, err)
	check := func(what string, v uint64, fut *Future, wantVal uint64, wantErr error) {
		t.Helper()
		if req, ok := waitsOn[fut]; !ok || ref.order[req] != v {
			t.Fatalf("%s of %d does not wait on its variable's request", what, v)
		}
		if fut.err == errUnwritten {
			t.Fatalf("%s of %d left unwritten", what, v)
		}
		if fut.err != wantErr || (wantErr == nil && fut.val != wantVal) {
			t.Fatalf("%s of %d completed (%d, %v), model (%d, %v)", what, v, fut.val, fut.err, wantVal, wantErr)
		}
	}
	for i, v := range ref.order {
		e := ref.m[v]
		for _, fut := range e.reads {
			var val uint64
			if res != nil {
				val = res.Values[i]
			}
			check("read", v, fut, val, verdict[i])
		}
		for _, fut := range e.writes {
			check("write", v, fut, 0, verdict[i])
		}
		for j, fut := range e.fwd {
			check("forwarded read", v, fut, e.fwdSeen[j], verdict[i])
		}
	}

	p.Reset()
	if p.Distinct() != 0 || p.Ops() != 0 {
		t.Fatalf("after Reset: Distinct/Ops = %d/%d", p.Distinct(), p.Ops())
	}
	for _, r := range want {
		if _, ok := p.Batch().Lookup(r.Var); ok {
			t.Fatalf("after Reset of %d requests: variable %d still indexed", len(want), r.Var)
		}
	}
	h.ref = refPending{m: map[uint64]*refEntry{}}
}

func (h *pendingHarness) read(v uint64) {
	h.seq++
	fut := newSentinelFuture()
	h.p.Read(h.seq, v, fut)
	h.ref.read(v, fut)
}

// write admits a write the way the dispatcher does: a write Write refuses
// flushes the batch and opens the next one. WriteConflicts must predict the
// refusal, and a refused write must leave the batch untouched.
func (h *pendingHarness) write(v uint64) {
	c := h.p.WriteConflicts(v)
	if c != h.ref.conflicts(v) {
		h.t.Fatalf("WriteConflicts(%d) = %v, model %v", v, c, !c)
	}
	h.seq++
	fut := newSentinelFuture()
	distinct, ops := h.p.Distinct(), h.p.Ops()
	if admitted := h.p.Write(h.seq, v, h.seq*10, fut); admitted == c {
		h.t.Fatalf("Write(%d) admitted = %v with WriteConflicts %v", v, admitted, c)
	}
	if c {
		if h.p.Distinct() != distinct || h.p.Ops() != ops {
			h.t.Fatalf("refused Write(%d) changed Distinct/Ops %d/%d → %d/%d", v, distinct, ops, h.p.Distinct(), h.p.Ops())
		}
		h.flush(flushOK, 0)
		if !h.p.Write(h.seq, v, h.seq*10, fut) {
			h.t.Fatalf("Write(%d) refused by a fresh batch", v)
		}
	}
	h.ref.writeOp(v, h.seq*10, fut)
}

// runPendingScript interprets script two bytes at a time: an opcode and an
// argument. Variables of single operations come from a domain of 24, so
// combining, coalescing, forwarding and write-after-read conflicts are
// common; a burst admits up to 765 distinct variables at once, far past the
// batch index's initial table.
func runPendingScript(t *testing.T, script []byte) {
	h := &pendingHarness{t: t, p: NewPending(16), ref: refPending{m: map[uint64]*refEntry{}}, mem: map[uint64]uint64{}}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, script[i+1]
		switch op {
		case 0, 1, 2:
			h.read(uint64(arg % 24))
		case 3, 4:
			h.write(uint64(arg % 24))
		case 5:
			for j := 0; j < 3*int(arg); j++ {
				if v := 1000 + uint64(j)*7919; j%2 == 0 {
					h.read(v)
				} else {
					h.write(v)
				}
			}
		case 6:
			h.flush(flushOK, int(arg))
		case 7:
			if arg%2 == 0 {
				h.flush(flushFailed, int(arg))
			} else {
				h.flush(flushDegraded, int(arg))
			}
		}
	}
	h.flush(flushOK, 0)
}

// FuzzPending holds Pending against the plain-map model on random
// admit/flush scripts. The seeds run under plain go test.
func FuzzPending(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 2, 0, 2, 3, 1, 6, 0})                // combine, forward, write-after-read conflict
	f.Add([]byte{3, 5, 3, 5, 0, 5, 0, 5, 7, 1, 0, 5, 7, 0, 3, 5})    // coalesce + forward, degraded, then failed
	f.Add([]byte{5, 255, 6, 0, 0, 1, 3, 2, 6, 1, 0, 3, 7, 3, 5, 40}) // a large batch, then small ones
	f.Add([]byte{5, 11, 5, 11, 6, 2, 5, 22, 7, 5, 5, 23, 7, 4})      // growth at the 32/64-entry boundaries
	f.Add([]byte{0, 0, 5, 90, 3, 0, 7, 9, 6, 6})
	f.Fuzz(runPendingScript)
}

// TestPendingSmallBatchAfterLarge: after a 4096-variable batch grew the
// index, small batches are served by the model-checked harness (each flush
// proves the index empty after Reset) and then cycle without allocating —
// the grown table is reused, not replaced. Reset empties the table by epoch
// whatever its size; protocol's TestDistinctBatchResetTouchesNoSlot pins that
// it writes no slot.
func TestPendingSmallBatchAfterLarge(t *testing.T) {
	h := &pendingHarness{t: t, p: NewPending(4096), ref: refPending{m: map[uint64]*refEntry{}}, mem: map[uint64]uint64{}}
	for v := uint64(0); v < 4096; v++ {
		h.read(v * 31)
	}
	h.flush(flushOK, 0)
	for round := 0; round < 3; round++ {
		for v := uint64(0); v < 57; v++ {
			h.read(v*131 + uint64(round))
		}
		h.flush(flushOK, round)
	}
	p := h.p
	res := &protocol.Result{Values: make([]uint64, 57)}
	var futs [57]Future
	round := uint64(3)
	if avg := testing.AllocsPerRun(20, func() {
		for v := range uint64(57) {
			p.Read(v, v*131+round, &futs[v])
		}
		round++
		p.Complete(res, nil)
		p.Reset()
	}); avg != 0 {
		t.Fatalf("a 57-variable cycle after a 4096-variable batch allocates %.2f times, want 0", avg)
	}
}

// TestDegradedFlushAllocFree: a warmed-up degraded flush — Complete marking
// its verdicts in the reused slice — allocates nothing (it used to build one
// map per call).
func TestDegradedFlushAllocFree(t *testing.T) {
	const batch, runs = 64, 50
	p := NewPending(batch)
	res := &protocol.Result{Values: make([]uint64, batch)}
	for i := 0; i < batch; i += 4 {
		res.Metrics.Unfinished = append(res.Metrics.Unfinished, i)
		if i%8 == 0 {
			res.Metrics.Stranded = append(res.Metrics.Stranded, i)
		}
	}
	err := fmt.Errorf("%w: degraded", protocol.ErrQuorumUnreachable)
	all := make([]Future, (runs+2)*2*batch)
	futs := all
	var stats Stats
	cycle := func() {
		for v := uint64(0); v < batch; v++ {
			if v%2 == 0 {
				p.Read(v, v, &futs[0])
			} else {
				p.Write(v, v, v, &futs[0])
			}
			p.Read(v, v, &futs[1]) // combined, or forwarded off the write
			futs = futs[2:]
		}
		stats.Account(p, res, FlushSize)
		p.Complete(res, err)
		p.Reset()
	}
	cycle()
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("degraded flush allocates %.2f times per batch, want 0", avg)
	}
	if _, werr := all[0].Result(); !errors.Is(werr, protocol.ErrQuorumUnreachable) {
		t.Fatalf("stranded request 0 completed with %v, want the quorum verdict", werr)
	}
}

// TestCombiningFlushAllocFree: a batch's waiters are one flat array in
// admission order, so once a Pending has held a batch of as many ops, a
// batch of combined reads, coalesced writes and forwarded reads allocates
// nothing however its waiters crowd onto variables — here each measured
// batch piles one more waiter onto every variable than the last, so a
// per-variable slice of waiters would have to keep growing, after a first
// batch as large as the largest of them.
func TestCombiningFlushAllocFree(t *testing.T) {
	const hot, runs = 8, 40
	p := NewPending(2 * hot)
	res := &protocol.Result{Values: make([]uint64, 2*hot)}
	futs := make([]Future, 3*hot*(runs+2))
	var stats Stats
	per := runs + 2
	cycle := func() {
		k, seq := 0, uint64(0)
		for v := range uint64(hot) {
			for range per {
				seq++
				p.Read(seq, v, &futs[k]) // the first issues, the rest combine
				k++
				seq++
				p.Write(seq, hot+v, seq, &futs[k]) // the first issues, the rest coalesce
				k++
				seq++
				p.Read(seq, hot+v, &futs[k]) // forwarded off the pending write
				k++
			}
		}
		stats.Account(p, res, FlushSize)
		p.Complete(res, nil)
		p.Reset()
		per++
	}
	cycle()
	per = 1 // reaches runs+1, AllocsPerRun's warm-up included
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("a combining flush allocates %.2f times per batch, want 0", avg)
	}
	if stats.CombinedReads == 0 || stats.CoalescedWrites == 0 || stats.ForwardedReads == 0 {
		t.Fatalf("the batches did not combine, coalesce and forward: %+v", stats)
	}
}

func TestFlushCauseStrings(t *testing.T) {
	want := map[FlushCause]string{
		FlushSize: "size", FlushIdle: "idle", FlushExplicit: "explicit",
		FlushConflict: "conflict", FlushConflict + 1: "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("FlushCause(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}
