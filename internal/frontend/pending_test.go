package frontend

import (
	"errors"
	"fmt"
	"slices"
	"sync"
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
	h.stats.Account(p, res, err, obs.FlushExplicit)
	if h.stats != wantStats {
		t.Fatalf("Stats = %+v\nmodel = %+v", h.stats, wantStats)
	}

	p.Complete(res, err)
	check := func(what string, v uint64, fut *Future, wantVal uint64, wantErr error) {
		t.Helper()
		if fut.state.Load() != 1 {
			t.Fatalf("%s of %d left incomplete", what, v)
		}
		if fut.next != nil {
			t.Fatalf("%s of %d completed still linked to a waiter list", what, v)
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
	fut := new(Future)
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
	fut := new(Future)
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
	futs := make([]Future, (runs+2)*2*batch)
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
		stats.Account(p, res, err, obs.FlushSize)
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

// TestCombiningFlushAllocFree: waiters ride their futures' links, so a
// batch of combined reads, coalesced writes and forwarded reads allocates
// nothing however many waiters a variable gathers — here one more each
// batch, so a per-variable slice of waiters would have to keep growing.
func TestCombiningFlushAllocFree(t *testing.T) {
	const hot, runs = 8, 40
	p := NewPending(2 * hot)
	res := &protocol.Result{Values: make([]uint64, 2*hot)}
	futs := make([]Future, 3*hot*(runs+2)) // per reaches runs+2, AllocsPerRun's warm-up included
	var stats Stats
	per := 1
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
		stats.Account(p, res, nil, obs.FlushSize)
		p.Complete(res, nil)
		p.Reset()
		per++
	}
	cycle()
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("a combining flush allocates %.2f times per batch, want 0", avg)
	}
	if stats.CombinedReads == 0 || stats.CoalescedWrites == 0 || stats.ForwardedReads == 0 {
		t.Fatalf("the batches did not combine, coalesce and forward: %+v", stats)
	}
}

// TestWaiterListsCompletionRace has many clients wait on the futures of one
// variable — combined reads in one batch, coalesced writes with forwarded
// reads in the next — while the flusher admits and completes them. Every
// waiter must see its own value and find its future unlinked; run under
// -race it pins that admission and completion touch a future's link and
// value only before completion hands the future back.
func TestWaiterListsCompletionRace(t *testing.T) {
	const waiters, rounds, v = 32, 50, 7
	p := NewPending(4)
	res := &protocol.Result{Values: make([]uint64, 1)}
	for round := range uint64(rounds) {
		futs := make([]Future, 2*waiters)
		want := make([]uint64, len(futs))
		var wg sync.WaitGroup
		for i := range futs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f := &futs[i]
				if val, err := f.Wait(); err != nil || val != want[i] {
					t.Errorf("round %d waiter %d: Wait = %d, %v; want %d", round, i, val, err, want[i])
				}
				if f.next != nil {
					t.Errorf("round %d waiter %d: future still linked after completion", round, i)
				}
			}()
		}
		// want is written before any future completes, so a waiter reads it
		// after its Wait returns.
		seq := uint64(0)
		read := round*1000 + 1
		for i := range waiters {
			seq++
			want[i] = read
			p.Read(seq, v, &futs[i])
		}
		res.Values[0] = read
		p.Complete(res, nil)
		p.Reset()

		last := uint64(0)
		for i := waiters; i < len(futs); i++ {
			seq++
			if i%2 == 0 {
				last = round*1000 + seq
				p.Write(seq, v, last, &futs[i])
			} else {
				want[i] = last
				p.Read(seq, v, &futs[i])
			}
		}
		p.Complete(res, nil)
		p.Reset()
		wg.Wait()
	}
}
