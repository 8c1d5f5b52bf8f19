package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// TestRingFIFO drives the ring with concurrent producers and one consumer
// and checks the two properties the dispatcher's correctness rests on:
// nothing is lost or duplicated, and each producer's operations arrive in
// the order it enqueued them (claim order is pop order).
func TestRingFIFO(t *testing.T) {
	const producers, perProducer = 8, 5000
	r := newRing(64, nil) // small: exercises wrap-around and the full path
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := uint64(p)<<32 | uint64(i)
				if err := r.enqueue(ringWrite, v, v, nil, nil); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	seen := make([]int, producers)
	total := 0
	var op ringOp
	for total < producers*perProducer {
		if !r.tryPop(&op) {
			r.park()
			continue
		}
		p := int(op.v >> 32)
		i := int(op.v & 0xffffffff)
		if i != seen[p] {
			t.Fatalf("producer %d: popped index %d, want %d (FIFO violated)", p, i, seen[p])
		}
		seen[p]++
		total++
	}
	wg.Wait()
	if r.tryPop(&op) {
		t.Fatalf("ring not empty after draining everything: %+v", op)
	}
}

// TestRingCloseCompleteness races producers against close: every enqueue
// must either succeed — and then be popped before the close sentinel — or
// fail with ErrClosed. Nothing may be admitted behind the sentinel and
// nothing may vanish.
func TestRingCloseCompleteness(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := newRing(32, nil)
		const producers = 6
		var accepted atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := r.enqueue(ringRead, 1, 0, nil, nil); err != nil {
						if !errors.Is(err, frontend.ErrClosed) {
							t.Errorf("enqueue: %v", err)
						}
						return
					}
					accepted.Add(1)
				}
			}()
		}
		popped := int64(0)
		closed := false
		var op ringOp
		deadline := time.After(10 * time.Second)
		for {
			if !r.tryPop(&op) {
				if !closed {
					closed = true
					// Close from the consumer goroutine mid-stream: the
					// sentinel lands behind every in-flight admission.
					go func() { r.close(); close(stop) }()
				}
				select {
				case <-deadline:
					t.Fatal("consumer starved: close sentinel never arrived")
				default:
				}
				r.park()
				continue
			}
			if op.kind == ringClose {
				break
			}
			popped++
		}
		wg.Wait()
		// Stragglers that were mid-enqueue when close() started still land
		// before the sentinel — so by now accepted is final.
		if popped != accepted.Load() {
			t.Fatalf("round %d: accepted %d ops but popped %d before the close sentinel",
				round, accepted.Load(), popped)
		}
		if r.tryPop(&op) {
			t.Fatalf("op admitted behind the close sentinel: %+v", op)
		}
	}
}

// TestRingEnqueueBatchSpansCapacity admits batches larger than the ring
// through the multi-slot claim while the consumer drains concurrently —
// the claim is one fetch-add even when the batch must stream through the
// ring in windows.
func TestRingEnqueueBatchSpansCapacity(t *testing.T) {
	r := newRing(16, nil)
	const n = 1000
	ops := make([]BatchOp, n)
	futs := make([]*frontend.Future, n)
	slab := make([]frontend.Future, n)
	for i := range ops {
		ops[i] = BatchOp{Write: true, Var: uint64(i), Val: uint64(i)}
		futs[i] = &slab[i]
	}
	done := make(chan error, 1)
	go func() { done <- r.enqueueBatch(ops, nil, futs) }()
	var op ringOp
	for i := 0; i < n; {
		if !r.tryPop(&op) {
			r.park()
			continue
		}
		if op.v != uint64(i) {
			t.Errorf("batch op %d popped out of order (got var %d)", i, op.v)
			break
		}
		i++
	}
	if err := <-done; err != nil {
		t.Fatalf("enqueueBatch: %v", err)
	}
}

// TestRingAdmissionFaultChurn is the satellite -race hammer at the service
// level: concurrent clients stream through tiny lock-free rings while a
// background goroutine fails and recovers modules and another hammers
// Flush; at the end the service closes under load. Every operation must
// complete or fail loudly (quorum verdict / ErrClosed) — no hangs, no
// silent drops.
func TestRingAdmissionFaultChurn(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, _ := faultService(t, 2, fs, protocol.Config{FaultAttempts: 4})
	N := s.NumModules

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
			fs.Recover(m)
			m = (m + 7) % N
		}
	}()

	const clients, opsPer = 4, 400
	var completed, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				v := uint64((c*opsPer + i) % 80) // the n=3 scheme has 84 variables
				fut, err := svc.WriteAsync(v, v)
				if err != nil {
					if !errors.Is(err, frontend.ErrClosed) {
						t.Errorf("client %d: admit: %v", c, err)
					}
					return
				}
				if _, err := fut.Wait(); err != nil {
					if !errors.Is(err, protocol.ErrIncomplete) && !errors.Is(err, protocol.ErrQuorumUnreachable) {
						t.Errorf("client %d: unexpected completion error: %v", c, err)
					}
					failed.Add(1)
				} else {
					completed.Add(1)
				}
				if i%64 == 0 {
					if err := svc.Flush(); err != nil && !errors.Is(err, frontend.ErrClosed) {
						t.Errorf("client %d: flush: %v", c, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := completed.Load() + failed.Load(); got != clients*opsPer {
		t.Fatalf("attributed %d of %d operations (completed %d, failed %d)",
			got, clients*opsPer, completed.Load(), failed.Load())
	}
	if completed.Load() == 0 {
		t.Fatal("no operation ever completed under churn")
	}
}

// TestRingEnqueueAllocs pins the admission path's allocation budget: an
// enqueue/pop cycle through the ring itself is allocation-free (the future
// is the caller's single allocation, minted outside the measured region).
func TestRingEnqueueAllocs(t *testing.T) {
	r := newRing(64, nil)
	fut := frontend.NewFuture()
	var op ringOp
	avg := testing.AllocsPerRun(1000, func() {
		if err := r.enqueue(ringWrite, 7, 7, fut, nil); err != nil {
			t.Fatal(err)
		}
		if !r.tryPop(&op) {
			t.Fatal("pop failed after enqueue")
		}
	})
	if avg != 0 {
		t.Fatalf("ring enqueue/pop allocates %.1f per op, want 0", avg)
	}
}

// FuzzRing model-checks the slot claim/seal arithmetic single-threaded: a
// byte script drives enqueues (single and batch) and pops against a plain
// slice model, across fuzzer-chosen capacities, long enough to wrap the
// generation stamps many times. Any divergence — wrong value, wrong order,
// pop succeeding on an empty ring or failing on a non-empty one — fails.
func FuzzRing(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 2, 0, 0, 1})
	f.Add(uint8(4), []byte{3, 5, 1, 1, 1, 1, 1, 1, 0, 2})
	f.Add(uint8(3), []byte{0, 0, 0, 1, 1, 1, 3, 7, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capBits uint8, script []byte) {
		capacity := 1 << (capBits%4 + 1) // 2..16 slots
		r := newRing(capacity, nil)
		ringCap := len(r.slots)
		var model []uint64
		next := uint64(0)
		var op ringOp
		for pc := 0; pc < len(script); pc++ {
			switch script[pc] % 4 {
			case 0: // enqueue one (skip when full: single-threaded, publish would spin forever)
				if len(model) >= ringCap {
					continue
				}
				if err := r.enqueue(ringWrite, next, next, nil, nil); err != nil {
					t.Fatalf("enqueue: %v", err)
				}
				model = append(model, next)
				next++
			case 1: // pop one
				got := r.tryPop(&op)
				if got != (len(model) > 0) {
					t.Fatalf("tryPop=%v with %d modeled entries", got, len(model))
				}
				if got {
					if op.v != model[0] {
						t.Fatalf("popped %d, model head %d", op.v, model[0])
					}
					model = model[1:]
				}
			case 2: // drain fully
				for r.tryPop(&op) {
					if len(model) == 0 {
						t.Fatal("popped from an empty model")
					}
					if op.v != model[0] {
						t.Fatalf("popped %d, model head %d", op.v, model[0])
					}
					model = model[1:]
				}
				if len(model) != 0 {
					t.Fatalf("ring empty but model holds %d", len(model))
				}
			case 3: // batch enqueue of what fits
				pc++
				if pc >= len(script) {
					break
				}
				m := int(script[pc]) % (ringCap - len(model) + 1)
				if m == 0 {
					continue
				}
				ops := make([]BatchOp, m)
				futs := make([]*frontend.Future, m)
				for i := range ops {
					ops[i] = BatchOp{Write: true, Var: next, Val: next}
					model = append(model, next)
					next++
				}
				if err := r.enqueueBatch(ops, nil, futs); err != nil {
					t.Fatalf("enqueueBatch: %v", err)
				}
			}
		}
		// Final drain: the ring and the model must agree to the last op.
		for r.tryPop(&op) {
			if len(model) == 0 || op.v != model[0] {
				t.Fatalf("final drain diverged (model %d left)", len(model))
			}
			model = model[1:]
		}
		if len(model) != 0 {
			t.Fatalf("%d modeled entries never popped", len(model))
		}
	})
}

// TestRingDepthObservability checks the ring's high-water mark reaches
// Stats().MaxQueueDepth and the collector's park/wake counters move.
func TestRingDepthObservability(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 1, MaxBatch: 8, Observe: true})
	for i := 0; i < 64; i++ {
		if err := svc.Write(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Total.MaxQueueDepth < 1 {
		t.Fatalf("MaxQueueDepth %d, want >= 1", st.Total.MaxQueueDepth)
	}
	snap := svc.Snapshot()
	if snap["shard0_flusher_parks_total"] == 0 {
		t.Fatalf("flusher never parked across 64 synchronous writes: %v", snap)
	}
	if snap["shard0_flusher_wakes_total"] == 0 {
		t.Fatalf("no producer wake recorded: %v", snap)
	}
	if snap["shard0_max_ring_depth"] < 1 {
		t.Fatalf("max_ring_depth %d, want >= 1", snap["shard0_max_ring_depth"])
	}
}
