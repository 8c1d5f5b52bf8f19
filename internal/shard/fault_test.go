package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// faultService builds a sharded service whose every shard's
// interconnect consults one shared runtime fault set, and whose shards
// report their protocol facts to the one collector it returns.
func faultService(t testing.TB, shards int, fs *mpc.FaultSet) (*Service, *core.Scheme, core.Indexer, *obs.Collector) {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	svc, err := New(protocol.NewCoreMapper(s, idx), Config{
		Shards:   shards,
		maxBatch: 16,
		Protocol: protocol.Config{
			NewMachine: func(mcfg mpc.Config) (protocol.Machine, error) { return mpc.NewFailingShared(mcfg, fs) },
			Observer:   col,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, s, idx, col
}

// awaitRepaired waits until fs has no module under repair, the shards'
// idle pumps having rebuilt and certified what came back, and reports true;
// it reports false at once when stop closes. A Flush wakes a parked
// dispatcher, so an idle service starts its sweep.
func awaitRepaired(svc *Service, fs *mpc.FaultSet, stop <-chan struct{}) bool {
	if fs.RepairCount() > 0 {
		svc.Flush() // only a wake-up: on a closed service stop ends the wait
	}
	for fs.RepairCount() > 0 {
		select {
		case <-stop:
			return false
		case <-time.After(20 * time.Microsecond):
		}
	}
	return true
}

// readmit re-admits mods through RecoverPending and waits, at most ten
// seconds, for the repair sweep to certify them.
func readmit(t *testing.T, svc *Service, fs *mpc.FaultSet, mods ...uint64) {
	t.Helper()
	for _, m := range mods {
		fs.RecoverPending(m)
	}
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	if !awaitRepaired(svc, fs, stop) {
		t.Fatalf("repair did not certify %v: %d modules still repairing", mods, fs.RepairCount())
	}
}

// TestShardDegradedBatch pins degraded-mode serving: with the victim
// variable's modules failed, the victim's future fails with the quorum
// verdict while healthy operations admitted into the same shard's stream
// commit normally, and the shards' shared observer counts the stranding.
func TestShardDegradedBatch(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, idx, col := faultService(t, 2, fs)
	defer svc.Close()

	victim := uint64(10)
	vmods := s.VarModules(nil, idx.Mat(victim))
	failed := map[uint64]bool{}
	for _, m := range vmods {
		failed[m] = true
	}
	var healthy []uint64
	var scratch []uint64
	for v := uint64(0); len(healthy) < 8; v++ {
		if v == victim {
			continue
		}
		live := 0
		scratch = s.VarModules(scratch[:0], idx.Mat(v))
		for _, m := range scratch {
			if !failed[m] {
				live++
			}
		}
		if live >= s.Majority {
			healthy = append(healthy, v)
		}
	}

	for _, v := range append([]uint64{victim}, healthy...) {
		if err := svc.Write(v, v+900); err != nil {
			t.Fatalf("healthy write of %d: %v", v, err)
		}
	}
	for _, m := range vmods {
		fs.Fail(m)
	}

	reads := []BatchOp{{Var: victim}}
	for _, v := range healthy {
		reads = append(reads, BatchOp{Var: v})
	}
	b, err := svc.AccessBatch(reads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Value(0); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("victim verdict: %v", err)
	}
	for i := range healthy {
		v, err := b.Value(i + 1)
		if err != nil {
			t.Fatalf("healthy read of %d in degraded shard stream: %v", healthy[i], err)
		}
		if v != healthy[i]+900 {
			t.Fatalf("healthy read of %d = %d, want %d", healthy[i], v, healthy[i]+900)
		}
	}
	if n := col.StrandedRequests.Load(); n < 1 {
		t.Fatalf("observed stranded = %d, want >= 1", n)
	}

	readmit(t, svc, fs, vmods...)
	if v, err := svc.Read(victim); err != nil || v != victim+900 {
		t.Fatalf("victim after recovery: %d, %v", v, err)
	}
}

// TestFaultHammer churns Fail/RecoverPending in the background, failing the
// next module only once the last one's repair is certified — never more
// than one module unreadable at any instant, so every variable keeps a
// readable majority at all times — while client goroutines stream
// operations through the pipelined sharded service. Every request must
// succeed: the retry passes re-select quorums over survivors until one
// lands. Run under -race this is the concurrency lane for the whole fault
// path.
func TestFaultHammer(t *testing.T) {
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

	clients := 4
	ops := 300
	if testing.Short() {
		ops = 100
	}
	vars := uint64(50)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			const window = 16
			pending := make([]BatchOp, 0, window)
			drain := func() {
				b, err := svc.AccessBatch(pending)
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
				} else if err := b.Wait(); err != nil {
					t.Errorf("client %d: request failed under single-failure churn: %v", c, err)
				}
				pending = pending[:0]
			}
			for i := 0; i < ops; i++ {
				v := uint64((c*131 + i*17)) % vars
				pending = append(pending, BatchOp{Write: i%3 == 0, Var: v, Val: uint64(c)<<32 | uint64(i)})
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
}

// TestStrandingMatchesMemoryMap pins PP93's fault tolerance as a property of
// the memory map: under a static fault set an op is refused with
// ErrQuorumUnreachable exactly when its variable keeps fewer live copies than
// its quorum — counted here from CopyAddr alone, independent of the fault
// layer — and every other op commits with the value the seq-ordered oracle
// replays, while the recorded trace certifies under the service's contract.
// Two fault shapes: a contiguous quarter of the modules, which is what a dead
// memserver takes down, and a majority of two chosen variables' copies.
func TestStrandingMatchesMemoryMap(t *testing.T) {
	for _, shape := range []string{"range", "majority"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/S=%d", shape, shards), func(t *testing.T) {
				fs := mpc.NewFaultSet()
				svc, s, idx, _ := faultService(t, shards, fs)
				defer svc.Close()
				m := protocol.NewCoreMapper(s, idx)
				quorum := max(m.ReadQuorum(), m.WriteQuorum())
				failed := map[uint64]bool{}
				switch shape {
				case "range":
					lo, hi := s.NumModules/4, s.NumModules/2
					fs.FailRange(lo, hi)
					for mod := lo; mod < hi; mod++ {
						failed[mod] = true
					}
				case "majority":
					for _, v := range []uint64{0, 5} {
						for c := 0; c <= m.Copies()-quorum; c++ {
							mod, _ := m.CopyAddr(v, c)
							fs.Fail(mod)
							failed[mod] = true
						}
					}
				}
				lost := func(v uint64) bool {
					live := 0
					for c := 0; c < m.Copies(); c++ {
						if mod, _ := m.CopyAddr(v, c); !failed[mod] {
							live++
						}
					}
					return live < quorum
				}

				recs := driveRecorded(t, svc, 4, 120, 48, int64(len(shape)*10+shards), true)
				if t.Failed() {
					t.FailNow()
				}
				if err := svc.Flush(); err != nil {
					t.Fatal(err)
				}
				ops, refused := 0, 0
				for c, stream := range recs {
					for i, r := range stream {
						if r.failed != lost(r.v) {
							t.Fatalf("client %d op %d on variable %d: refused=%v, but the memory map says lost=%v", c, i, r.v, r.failed, lost(r.v))
						}
						ops++
						if r.failed {
							refused++
						}
					}
				}
				if refused == 0 || refused == ops {
					t.Fatalf("%d of %d ops refused: the variable set must hold lost and surviving variables", refused, ops)
				}
				if msg := oracleReplay(svc, recs); msg != "" {
					t.Fatalf("oracle diverged: %s", msg)
				}
				contract := consistency.ContractPerVariable
				if shards == 1 {
					contract = consistency.ContractTotalOrder
				}
				for _, mode := range consistency.ModesFor(contract) {
					if rep := consistency.Check(traceOf(recs), mode); !rep.OK {
						t.Fatalf("checker rejected the degraded run (%s): %+v", mode, rep.First())
					}
				}
				t.Logf("%d of %d ops refused", refused, ops)
			})
		}
	}
}
