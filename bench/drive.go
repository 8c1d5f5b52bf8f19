package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// phase tells the output check which refusals the fault script allows. The
// generator knows the failed range, so it knows exactly which variables
// lost their live majority (lostMajority): a typed refusal on one of those
// is the system keeping its contract — an op commits or fails with a typed
// error — and anything else, in either direction, is a failed op.
type phase int

const (
	// healthy: every op must succeed.
	healthy phase = iota
	// degraded: the range is failed and the fault set is static, so an op
	// on a variable that lost its majority must return ErrQuorumUnreachable
	// and every other op must succeed.
	degraded
	// repairing: the range is re-admitted but barred from read quorums
	// until certified, so a read of such a variable may be refused with an
	// ErrIncomplete-class error until the sweep certifies its modules;
	// writes must succeed.
	repairing
)

// tally is what one drive observed, summed over clients.
type tally struct {
	ops      int64   // ops the service returned to a client
	failed   int64   // wrong value, unexpected verdict, or never sent
	refused  int64   // typed refusals the fault script allows
	lat      []int64 // per window: AccessBatch call → Wait return, ns
	submit   int64   // traced runs: Σ AccessBatch time, ns
	wait     int64   // traced runs: Σ Batch.Wait time, ns
	wall     time.Duration
	firstErr string // first failed op, for the report
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.refused += o.refused
	t.lat = append(t.lat, o.lat...)
	t.submit += o.submit
	t.wait += o.wait
	t.wall += o.wall
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// driver runs closed-loop clients against one stack: each client submits
// one window with AccessBatch and blocks in Batch.Wait before the next.
type driver struct {
	svc    *shard.Service
	window int
	lost   bitset                   // variables without a live majority; nil when healthy
	rec    *consistency.RunRecorder // set during the certified pass
	tc     *tracer                  // nil on untraced runs
	done   []int                    // windows each client has submitted so far (span ids)
}

// errHung reports clients still blocked after the slice's wall-clock
// ceiling plus a grace period: the run cannot continue.
var errHung = errors.New("clients still blocked past the wall-clock ceiling")

// hangGrace is how long past the ceiling a blocked Wait may take to return
// before the run is abandoned.
const hangGrace = 5 * time.Second

// drive submits every client's stream window by window and returns when all
// clients are done. A client that reaches a window boundary after deadline
// stops and counts its unsent ops as failed, so a slow system fails ops
// instead of running into the harness timeout.
func (d *driver) drive(streams [][]shard.BatchOp, ph phase, deadline time.Time) (tally, error) {
	parts := make([]tally, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.client(c, streams[c], ph, deadline, &parts[c])
		}(c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Until(deadline) + hangGrace):
		return tally{}, errHung
	}
	var sum tally
	for c := range parts {
		sum.add(&parts[c])
		d.done[c] += len(streams[c]) / d.window
	}
	sum.wall = time.Since(start)
	return sum, nil
}

func (d *driver) client(c int, ops []shard.BatchOp, ph phase, deadline time.Time, out *tally) {
	out.lat = make([]int64, 0, len(ops)/d.window)
	var cr *consistency.ClientRecorder
	if d.rec != nil {
		cr = d.rec.Client(c)
	}
	var spans *ring
	if d.tc != nil && d.tc.on.Load() {
		spans = d.tc.clients[c]
	}
	fail := func(op *shard.BatchOp, format string, args ...any) {
		out.failed++
		if out.firstErr == "" {
			out.firstErr = fmt.Sprintf("client %d, %s of variable %d: ", c, opName(op), op.Var) + fmt.Sprintf(format, args...)
		}
	}
	// abandon counts the ops from window offset w on as never sent.
	abandon := func(w int, why string) {
		out.failed += int64(len(ops) - w)
		if out.firstErr == "" {
			out.firstErr = fmt.Sprintf("client %d: %s with %d ops unsent", c, why, len(ops)-w)
		}
	}
	for w := 0; w < len(ops); w += d.window {
		win := ops[w : w+d.window]
		t0 := time.Now()
		if t0.After(deadline) {
			abandon(w, "wall-clock ceiling reached")
			return
		}
		b, err := d.svc.AccessBatch(win)
		t1 := time.Now()
		if err != nil {
			abandon(w, "AccessBatch: "+err.Error())
			return
		}
		_ = b.Wait() // per-op verdicts are read below
		t2 := time.Now()
		out.lat = append(out.lat, t2.Sub(t0).Nanoseconds())
		if spans != nil {
			out.submit += t1.Sub(t0).Nanoseconds()
			out.wait += t2.Sub(t1).Nanoseconds()
			root := spans.add(span{Name: "window", Seq: uint64(d.done[c] + w/d.window)}, d.tc.since(t0), d.tc.since(t2))
			spans.add(span{Name: "submit", Parent: root}, d.tc.since(t0), d.tc.since(t1))
			spans.add(span{Name: "wait", Parent: root}, d.tc.since(t1), d.tc.since(t2))
		}
		out.ops += int64(len(win))
		for i := range win {
			op := &win[i]
			val, err := b.Value(i)
			switch {
			case err == nil:
				if ph == degraded && d.lost.has(op.Var) {
					fail(op, "succeeded although its variable has no live majority")
				} else if !op.Write && !valueMatches(op.Var, val) {
					fail(op, "returned %#x, a value written to variable %d", val, val>>tagShift)
				}
			case ph == degraded && d.lost.has(op.Var) && errors.Is(err, protocol.ErrQuorumUnreachable),
				ph == repairing && !op.Write && d.lost.has(op.Var) && errors.Is(err, protocol.ErrIncomplete):
				out.refused++
			default:
				fail(op, "%v", err)
			}
			if cr != nil {
				switch {
				case err != nil:
					cr.Record(op.Write, op.Var, op.Val, true)
				case op.Write:
					cr.Record(true, op.Var, op.Val, false)
				default:
					cr.Record(false, op.Var, val, false)
				}
			}
		}
	}
}

func opName(op *shard.BatchOp) string {
	if op.Write {
		return "write"
	}
	return "read"
}

// bitset is a set of variable indices.
type bitset []uint64

func (b bitset) has(v uint64) bool { return b != nil && b[v>>6]&(1<<(v&63)) != 0 }

// lostMajority returns the variables that keep fewer live copies than their
// quorum when modules [lo, hi) are failed. It reads the memory map only, so
// it is an oracle independent of the fault layer it checks.
func lostMajority(m protocol.Mapper, lo, hi uint64) bitset {
	b := make(bitset, (m.NumVars()+63)/64)
	copies, quorum := m.Copies(), m.ReadQuorum()
	if w := m.WriteQuorum(); w > quorum {
		quorum = w
	}
	for v := uint64(0); v < m.NumVars(); v++ {
		live := 0
		for c := 0; c < copies; c++ {
			if mod, _ := m.CopyAddr(v, c); mod < lo || mod >= hi {
				live++
			}
		}
		if live < quorum {
			b[v>>6] |= 1 << (v & 63)
		}
	}
	return b
}
