package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// TestChurnSoakRepair is the compressed churn soak: continuous
// Fail → RecoverPending at 100µs cadence with self-healing repair enabled,
// at least 1e5 client operations streamed through the sharded service over
// all M = 84 variables of q=2 n=3, every one recorded as its client saw it.
// The invariants pinned:
//
//   - Stranding stays at zero. In-process faults never destroy store cells,
//     and a read blocked on a repairing (uncertified) module is reported as
//     plain incomplete, never stranded — there is provably nothing lost.
//   - The whole recorded history certifies under the per-variable contract
//     (consistency.Check, ModePerVariable); a failed write that partly
//     landed is covered by the checker's resurrection rule.
//   - The repair backlog fully drains once the churn stops — the idle pump
//     and the per-batch pump between them leave no module uncertified.
//
// Run under -race this is the concurrency lane for the repair scheduler
// interleaved with live traffic; it is skipped under -short.
func TestChurnSoakRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped under -short")
	}

	fs := mpc.NewFaultSet()
	svc, s, _, col := faultService(t, 2, fs)
	defer svc.Close()

	// Churn: fail one module, hold it down for 100µs, then re-admit it
	// through the repair path. Stepping by 13 (coprime to 63) walks the
	// whole module space; at any instant at most one module is failed while
	// earlier victims may still be repairing (barred from read quorums
	// until a sweep certifies them).
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
			time.Sleep(100 * time.Microsecond)
			fs.RecoverPending(m)
			m = (m + 13) % s.NumModules
		}
	}()

	// The checker's cost grows with the square of the operations per
	// variable, so the traffic spreads over every variable the scheme has.
	const (
		clients = 4
		ops     = 25000 // 4 × 25000 = 1e5 operations
		window  = 32
	)
	vars := s.NumVariables
	recorder := consistency.NewRecorder()
	run := recorder.Run("churn-soak", consistency.ContractPerVariable, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := run.Client(c)
			pending := make([]BatchOp, 0, window)
			drain := func() {
				b, err := svc.AccessBatch(pending)
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				for i, p := range pending {
					got, err := b.Value(i)
					if err != nil {
						// Quorum outages are legitimate while modules sit in
						// repair; anything else is a bug.
						if !errors.Is(err, protocol.ErrIncomplete) {
							t.Errorf("client %d: non-quorum failure under churn: %v", c, err)
						}
					}
					if p.Write {
						got = p.Val
					}
					rec.Record(p.Write, p.Var, got, err != nil)
				}
				pending = pending[:0]
			}
			for i := 0; i < ops; i++ {
				p := BatchOp{Write: i%3 == 0, Var: uint64(c*131+i*17) % vars}
				if p.Write {
					p.Val = rec.WriteValue()
				}
				pending = append(pending, p)
				if len(pending) == window {
					drain()
				}
			}
			drain()
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	// Storm over: re-admit anything still failed, then drive traffic until
	// the repair backlog fully drains (batches pump repair; Flush wakes any
	// parked flusher).
	snap := fs.Snapshot()
	for m := uint64(0); m < s.NumModules; m++ {
		if snap.Failed(m) {
			fs.RecoverPending(m)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for fs.RepairCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair backlog stuck at %d after churn stopped", fs.RepairCount())
		}
		if _, err := svc.Read(0); err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			t.Fatal(err)
		}
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Count() != 0 {
		t.Fatalf("%d modules still failed after recovery", fs.Count())
	}

	// Everything must read cleanly on the healed system.
	for v := uint64(0); v < vars; v++ {
		if _, err := svc.Read(v); err != nil {
			t.Fatalf("read %d on healed system: %v", v, err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Total.OpsIn < clients*ops {
		t.Fatalf("only %d of %d operations admitted", st.Total.OpsIn, clients*ops)
	}
	// The tentpole invariant: repair means nothing is ever provably lost —
	// requests may wait out an outage, but none may strand.
	if n := col.StrandedRequests.Load(); n != 0 {
		t.Fatalf("%d requests stranded under churn with repair enabled", n)
	}
	rep := consistency.Check(recorder.TraceSet().Runs[0].Clients, consistency.ModePerVariable)
	if !rep.OK {
		t.Fatalf("churn history rejected: %+v", rep.First())
	}
	if rep.OpsChecked+rep.DroppedFailed < clients*ops {
		t.Fatalf("checker saw %d ops (+%d failed dropped), drove %d", rep.OpsChecked, rep.DroppedFailed, clients*ops)
	}
	t.Logf("soak: %d ops over %d variables, %d incomplete (%d resurrected), backlog drained, 0 stranded, history certified",
		st.Total.OpsIn, vars, rep.DroppedFailed+rep.Resurrected, rep.Resurrected)
}
