package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"detshmem/internal/consistency"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// This file cross-checks the repo's two independent consistency verifiers
// against each other on the same runs:
//
//   - the differential oracle (internal/frontend/differential_test.go):
//     white-box — replays the dispatcher-assigned commit sequence numbers
//     against a plain map, one replay per shard;
//   - the black-box trace checker (internal/consistency): sees only what
//     clients saw — per-client streams of (op, value) — and decides by
//     constraint-graph closure under the run's declared contract.
//
// Both must certify every legitimate run (frontend total-order, sharded
// per-variable, and the fault matrix with stranded requests excluded), and
// both must reject the same corrupted record stream. Failed operations
// (ErrQuorumUnreachable) are dropped from the oracle replay and marked
// Failed in the trace, where the checker's failed-op policy handles them.

// xrec is one operation as a client observed it: oracle fields (seq) plus
// trace fields (program order is the slice order per client).
type xrec struct {
	seq    uint64
	write  bool
	v, val uint64
	failed bool
}

// driveRecorded drives the service with windowed hot-spot traffic and
// returns each client's operations in program order. Write values are
// minted uniquely per client (the recorder discipline). With allowFail,
// ErrQuorumUnreachable verdicts are recorded as failed ops instead of
// failing the test.
func driveRecorded(t *testing.T, svc *Service, clients, opsPerClient int, vars uint64, seed int64, allowFail bool) [][]xrec {
	t.Helper()
	out := make([][]xrec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			recs := make([]xrec, 0, opsPerClient)
			const window = 16
			pending := make([]BatchOp, 0, window)
			drain := func() {
				b, err := svc.AccessBatch(pending)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for i, op := range pending {
					got, err := b.Value(i)
					if err != nil {
						if !allowFail || !errors.Is(err, protocol.ErrQuorumUnreachable) {
							t.Errorf("client %d: %v", c, err)
							return
						}
						recs = append(recs, xrec{write: op.Write, v: op.Var, val: op.Val, failed: true})
						continue
					}
					r := xrec{seq: b.Seq(i), write: op.Write, v: op.Var, val: got}
					if op.Write {
						r.val = op.Val
					}
					recs = append(recs, r)
				}
				pending = pending[:0]
			}
			mint := uint64(0)
			for i := 0; i < opsPerClient; i++ {
				v := uint64(rng.Int63n(8))
				if rng.Intn(100) >= 60 {
					v = uint64(rng.Int63n(int64(vars)))
				}
				if rng.Intn(100) < 40 {
					mint++
					val := uint64(c+1)<<40 | mint
					pending = append(pending, BatchOp{Write: true, Var: v, Val: val})
				} else {
					pending = append(pending, BatchOp{Var: v})
				}
				if len(pending) == window {
					drain()
				}
			}
			drain()
			out[c] = recs
		}(c)
	}
	wg.Wait()
	return out
}

// traceOf converts the recorded streams into the checker's trace model.
func traceOf(recs [][]xrec) consistency.Trace {
	tr := make(consistency.Trace, len(recs))
	for c, stream := range recs {
		for _, r := range stream {
			tr[c] = append(tr[c], consistency.Op{Write: r.write, Var: r.v, Val: r.val, Failed: r.failed})
		}
	}
	return tr
}

// oracleReplay is the differential oracle generalized to S shards: failed
// ops are dropped, the rest are grouped by route and each shard's commit
// sequence is replayed against a plain map. Returns a description of the
// first divergence, or "" when the replay matches.
func oracleReplay(svc *Service, recs [][]xrec) string {
	byShard := make([][]xrec, svc.Shards())
	for _, stream := range recs {
		for _, r := range stream {
			if r.failed {
				continue
			}
			sh := svc.Route(r.v)
			byShard[sh] = append(byShard[sh], r)
		}
	}
	for sh, rs := range byShard {
		sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
		oracle := make(map[uint64]uint64)
		for i, r := range rs {
			if i > 0 && rs[i-1].seq == r.seq {
				return fmt.Sprintf("shard %d: duplicate commit sequence %d", sh, r.seq)
			}
			if r.write {
				oracle[r.v] = r.val
				continue
			}
			if want := oracle[r.v]; r.val != want {
				return fmt.Sprintf("shard %d seq %d: read of var %d returned %d, oracle says %d", sh, r.seq, r.v, r.val, want)
			}
		}
	}
	return ""
}

// TestCrossCheckTotalOrder: a single shard honors the total-order contract —
// the white-box oracle and the black-box checker (under BOTH modes, per
// ModesFor) must certify the same concurrent runs.
func TestCrossCheckTotalOrder(t *testing.T) {
	// The subtest keeps the id the committed test floor lists.
	const name = "pipelined/parallel=false"
	t.Run(name, func(t *testing.T) {
		svc := newService(t, 3, Config{Shards: 1})
		ops := 120
		if testing.Short() {
			ops = 50
		}
		recs := driveRecorded(t, svc, 4, ops, 32, int64(len(name)), false)
		if t.Failed() {
			t.FailNow()
		}
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
		if msg := oracleReplay(svc, recs); msg != "" {
			t.Fatalf("oracle diverged: %s", msg)
		}
		tr := traceOf(recs)
		for _, mode := range consistency.ModesFor(consistency.ContractTotalOrder) {
			rep := consistency.Check(tr, mode)
			if !rep.OK {
				t.Fatalf("checker rejected a run the oracle certified (%s): %+v", mode, rep.First())
			}
			if rep.OpsChecked != 4*ops {
				t.Fatalf("%s checked %d ops, drove %d", mode, rep.OpsChecked, 4*ops)
			}
		}
	})
}

// TestCrossCheckShardedPerVariable: with S > 1 there is no cross-shard
// order; the service's contract is per-variable. Both verifiers must
// certify under that contract, at S=4 with full batches and at S=3 with
// two-variable batches, where reads and writes of one variable often share
// a batch as one read-write request.
func TestCrossCheckShardedPerVariable(t *testing.T) {
	for _, cell := range []struct {
		name string // "pipelined" is the S=4 cell's long-standing id
		cfg  Config
	}{
		{"pipelined", Config{Shards: 4}},
		{"maxbatch=2", Config{Shards: 3, maxBatch: 2}},
	} {
		t.Run(cell.name, func(t *testing.T) {
			svc := newService(t, 3, cell.cfg)
			ops := 150
			if testing.Short() {
				ops = 60
			}
			recs := driveRecorded(t, svc, 4, ops, 80, 41, false)
			if t.Failed() {
				t.FailNow()
			}
			if err := svc.Flush(); err != nil {
				t.Fatal(err)
			}
			if msg := oracleReplay(svc, recs); msg != "" {
				t.Fatalf("oracle diverged: %s", msg)
			}
			tr := traceOf(recs)
			for _, mode := range consistency.ModesFor(consistency.ContractPerVariable) {
				if rep := consistency.Check(tr, mode); !rep.OK {
					t.Fatalf("checker rejected a run the oracle certified (%s): %+v", mode, rep.First())
				}
			}
		})
	}
}

// TestCrossCheckAgreeOnCorruption: the two verifiers must also agree on the
// negative side. Corrupt one committed read in a recorded run to a value no
// write ever minted: the oracle replay diverges AND the checker reports a
// phantom read on the same trace.
func TestCrossCheckAgreeOnCorruption(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 1})
	recs := driveRecorded(t, svc, 3, 80, 24, 17, false)
	if t.Failed() {
		t.FailNow()
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := oracleReplay(svc, recs); msg != "" {
		t.Fatalf("clean run diverged: %s", msg)
	}

	corrupted := false
	for c := range recs {
		for i := range recs[c] {
			r := &recs[c][i]
			if !r.write && !r.failed && r.val != 0 {
				r.val = 0xF<<60 | 0xBAD // outside the minted value space
				corrupted = true
				break
			}
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("run offered no committed nonzero read to corrupt")
	}
	if msg := oracleReplay(svc, recs); msg == "" {
		t.Fatal("oracle certified the corrupted records")
	}
	rep := consistency.Check(traceOf(recs), consistency.ModePerVariable)
	if rep.OK {
		t.Fatal("checker certified the corrupted trace")
	}
	if v := rep.First(); v.Kind != consistency.KindPhantomRead {
		t.Fatalf("violation kind = %s, want phantom read", v.Kind)
	}
}

// TestCrossCheckFaultHammer runs the cross-check over the PR5 fault matrix:
// background single-module churn with retry enabled, so every request
// eventually commits. Both verifiers must certify the per-variable contract.
func TestCrossCheckFaultHammer(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, _, _ := faultService(t, 2, fs)
	defer svc.Close()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		m := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.Fail(m)
			// Down across one Flush: every batch admitted before it
			// commits while m is failed.
			if err := svc.Flush(); err != nil {
				t.Errorf("flush while module %d is down: %v", m, err)
				return
			}
			fs.RecoverPending(m)
			if !awaitRepaired(svc, fs, stop) {
				return
			}
			m = (m + 7) % s.NumModules
		}
	}()

	ops := 200
	if testing.Short() {
		ops = 80
	}
	recs := driveRecorded(t, svc, 4, ops, 50, 53, false)
	close(stop)
	churn.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := oracleReplay(svc, recs); msg != "" {
		t.Fatalf("oracle diverged under churn: %s", msg)
	}
	if rep := consistency.Check(traceOf(recs), consistency.ModePerVariable); !rep.OK {
		t.Fatalf("checker rejected a churn run the oracle certified: %+v", rep.First())
	}
}

// TestCrossCheckDegradedStranding pins the failed-op seam between the two
// verifiers: a degraded batch strands a victim read and write with
// ErrQuorumUnreachable. The stranded ops are marked Failed in the trace —
// the checker must drop them (DroppedFailed accounting) and still certify,
// and the oracle replay over the committed remainder must match.
func TestCrossCheckDegradedStranding(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, idx, _ := faultService(t, 2, fs)
	defer svc.Close()

	victim := uint64(10)
	vmods := s.VarModules(nil, idx.Mat(victim))

	// Client 0's stream, recorded by hand around the fault window.
	var stream []xrec
	do := func(write bool, v, val uint64) {
		b, err := svc.AccessBatch([]BatchOp{{Write: write, Var: v, Val: val}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Value(0)
		if err != nil {
			if !errors.Is(err, protocol.ErrQuorumUnreachable) {
				t.Fatalf("unexpected verdict: %v", err)
			}
			stream = append(stream, xrec{write: write, v: v, val: val, failed: true})
			return
		}
		r := xrec{seq: b.Seq(0), write: write, v: v, val: got}
		if write {
			r.val = val
		}
		stream = append(stream, r)
	}

	do(true, victim, 1<<40|1)
	do(false, victim, 0)
	for _, m := range vmods {
		fs.Fail(m)
	}
	do(false, victim, 0)      // stranded read
	do(true, victim, 1<<40|2) // stranded write
	readmit(t, svc, fs, vmods...)
	do(false, victim, 0) // post-recovery read

	failed := 0
	for _, r := range stream {
		if r.failed {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("expected 2 stranded ops, got %d: %+v", failed, stream)
	}

	if msg := oracleReplay(svc, [][]xrec{stream}); msg != "" {
		t.Fatalf("oracle diverged around the fault window: %s", msg)
	}
	rep := consistency.Check(traceOf([][]xrec{stream}), consistency.ModePerVariable)
	if !rep.OK {
		t.Fatalf("checker rejected the degraded run: %+v", rep.First())
	}
	if rep.DroppedFailed+rep.Resurrected != 2 {
		t.Fatalf("failed-op accounting: dropped %d resurrected %d, want 2 total", rep.DroppedFailed, rep.Resurrected)
	}
}
