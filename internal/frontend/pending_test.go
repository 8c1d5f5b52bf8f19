package frontend

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// refEntry and refPending are the reference model FuzzPending holds Pending
// against: the combining rules over a plain Go map, nothing reused.
type refEntry struct {
	write              bool
	val                uint64
	reads, writes, fwd []*Future
	fwdVals            []uint64
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
		e.fwdVals = append(e.fwdVals, e.val)
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

// flush checks Requests, Account, Complete and Reset against the
// model. In a degraded flush request i is unfinished when (i+salt)%3 == 0 and
// stranded when (i+salt)%6 == 0.
func (h *pendingHarness) flush(mode flushMode, salt int) {
	t, p, ref := h.t, h.p, &h.ref
	if p.Distinct() != len(ref.order) || p.Ops() != ref.ops {
		t.Fatalf("Distinct/Ops = %d/%d, model %d/%d", p.Distinct(), p.Ops(), len(ref.order), ref.ops)
	}
	h.reqs = p.Requests(h.reqs)
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
		res.Metrics.TotalRounds, res.Metrics.CopyAccesses, res.Metrics.MaxIterations = 3, 2*len(want), 1+salt%5
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
		wantStats.CopyAccesses += int64(res.Metrics.CopyAccesses)
		wantStats.MaxPhi = max(wantStats.MaxPhi, res.Metrics.MaxIterations)
		wantStats.Unfinished += int64(len(res.Metrics.Unfinished))
		wantStats.Stranded += int64(len(res.Metrics.Stranded))
	} else {
		wantStats.FailedBatches++
	}
	h.stats.Account(p, len(h.reqs), res, err, obs.FlushExplicit)
	if h.stats != wantStats {
		t.Fatalf("Stats = %+v\nmodel = %+v", h.stats, wantStats)
	}

	p.Complete(res, err)
	check := func(what string, v uint64, fut *Future, wantVal uint64, wantErr error) {
		t.Helper()
		if fut.state.Load() != 1 {
			t.Fatalf("%s of %d left incomplete", what, v)
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
			check("forwarded read", v, fut, e.fwdVals[j], verdict[i])
		}
	}

	p.Reset()
	if p.Distinct() != 0 || p.Ops() != 0 {
		t.Fatalf("after Reset: Distinct/Ops = %d/%d", p.Distinct(), p.Ops())
	}
	if i := slices.IndexFunc(p.index, func(s uint32) bool { return s != 0 }); i >= 0 {
		t.Fatalf("after Reset of %d entries: index slot %d of %d still set", len(want), i, len(p.index))
	}
	h.ref = refPending{m: map[uint64]*refEntry{}}
}

func (h *pendingHarness) read(v uint64) {
	h.seq++
	fut := new(Future)
	h.p.Read(h.seq, v, fut)
	h.ref.read(v, fut)
}

// write admits a write the way the dispatchers do: flush first on a conflict.
func (h *pendingHarness) write(v uint64) {
	c := h.p.WriteConflicts(v)
	if c != h.ref.conflicts(v) {
		h.t.Fatalf("WriteConflicts(%d) = %v, model %v", v, c, !c)
	}
	if c {
		h.flush(flushOK, 0)
	}
	h.seq++
	fut := new(Future)
	h.p.Write(h.seq, v, h.seq*10, fut)
	h.ref.writeOp(v, h.seq*10, fut)
}

// runPendingScript interprets script two bytes at a time: an opcode and an
// argument. Variables of single operations come from a domain of 24, so
// combining, coalescing, forwarding and write-after-read conflicts are
// common; a burst admits up to 765 distinct variables at once, far past the
// initial index (and past the sweep/clear switch in Reset).
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
// index, a 57-variable batch resets by sweeping its own 57 slots — the
// model check in flush proves the index is empty either way; this pins that
// the table did not shrink or get reallocated in between.
func TestPendingSmallBatchAfterLarge(t *testing.T) {
	h := &pendingHarness{t: t, p: NewPending(4096), ref: refPending{m: map[uint64]*refEntry{}}, mem: map[uint64]uint64{}}
	for v := uint64(0); v < 4096; v++ {
		h.read(v * 31)
	}
	h.flush(flushOK, 0)
	table := &h.p.index[0]
	if len(h.p.index) < 2*4096 {
		t.Fatalf("index of %d slots after a 4096-variable batch", len(h.p.index))
	}
	for round := 0; round < 3; round++ {
		for v := uint64(0); v < 57; v++ {
			h.read(v*131 + uint64(round))
		}
		h.flush(flushOK, round)
	}
	if &h.p.index[0] != table {
		t.Fatal("small batches replaced the index")
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
	futs := make([]Future, (runs+2)*2*batch)
	var (
		stats Stats
		reqs  []protocol.Request
	)
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
		reqs = p.Requests(reqs)
		stats.Account(p, len(reqs), res, err, obs.FlushSize)
		p.Complete(res, err)
		p.Reset()
	}
	cycle()
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("degraded flush allocates %.2f times per batch, want 0", avg)
	}
	if stats.Stranded == 0 {
		t.Fatalf("no stranding accounted: %+v", stats)
	}
}
