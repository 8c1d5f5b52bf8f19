package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/core"
	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// TestChurnSoakRepair is the PR 10 compressed churn soak: continuous
// Fail → RecoverPending at 100µs cadence with self-healing repair enabled,
// at least 1e5 client operations streamed through the pipelined sharded
// service, under the full Rate-1 consistency audit. The invariants pinned:
//
//   - Stranding stays at zero. In-process faults never destroy store cells,
//     and a read blocked on a repairing (uncertified) module is reported as
//     plain incomplete, never stranded — there is provably nothing lost.
//   - Every committed value certifies: zero audit violations during the
//     storm, and each shard's commit-order ring replays clean afterwards.
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
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(protocol.NewCoreMapper(s, idx), Config{
		Shards:   2,
		MaxBatch: 32,
		Audit:    consistency.AuditConfig{Rate: 1},
		Protocol: protocol.Config{
			FaultAttempts: 64,
			NewMachine: func(mcfg mpc.Config) (protocol.Machine, error) {
				return mpc.NewFailingShared(mcfg, fs)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
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

	const (
		clients = 4
		ops     = 25000 // 4 × 25000 = 1e5 operations
		vars    = 64
		window  = 32
	)
	var wg sync.WaitGroup
	var incomplete int64
	var incMu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pending := make([]*frontend.Future, 0, window)
			failed := int64(0)
			drain := func() {
				for _, f := range pending {
					if _, err := f.Wait(); err != nil {
						// Quorum outages are legitimate while modules sit in
						// repair; anything else is a bug.
						if !errors.Is(err, protocol.ErrIncomplete) {
							t.Errorf("client %d: non-quorum failure under churn: %v", c, err)
						}
						failed++
					}
				}
				pending = pending[:0]
			}
			for i := 0; i < ops; i++ {
				v := uint64(c*131+i*17) % vars
				var f *frontend.Future
				var err error
				if i%3 == 0 {
					f, err = svc.WriteAsync(v, uint64(c)<<32|uint64(i))
				} else {
					f, err = svc.ReadAsync(v)
				}
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				pending = append(pending, f)
				if len(pending) == window {
					drain()
				}
			}
			drain()
			incMu.Lock()
			incomplete += failed
			incMu.Unlock()
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	// Storm over: re-admit anything still failed, then drive traffic until
	// the repair backlog fully drains (batches pump repair; Flush wakes any
	// parked flusher).
	for _, m := range fs.Modules() {
		fs.RecoverPending(m)
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
	if st.Total.Stranded != 0 {
		t.Fatalf("%d requests stranded under churn with repair enabled", st.Total.Stranded)
	}
	if ast := svc.AuditStats(); ast.Violations != 0 {
		for i := 0; i < svc.Shards(); i++ {
			t.Logf("shard %d samples: %+v", i, svc.Auditor(i).ViolationSamples())
		}
		t.Fatalf("churn traffic tripped the consistency audit: %+v", ast)
	}
	for i := 0; i < svc.Shards(); i++ {
		if rep := svc.Auditor(i).CheckNow(); !rep.OK {
			t.Fatalf("shard %d commit trace rejected: %+v", i, rep.First())
		}
	}
	t.Logf("soak: %d ops, %d incomplete (%.2f%%), backlog drained, 0 stranded, 0 violations",
		st.Total.OpsIn, incomplete, 100*float64(incomplete)/float64(st.Total.OpsIn))
}
