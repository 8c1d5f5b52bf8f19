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

// oneOp is a queue entry carrying a one-op batch: a write of v to v.
func oneOp(v uint64) entry {
	b := &Batch{ops: make([]batchOp, 1)}
	b.ops[0].set(BatchOp{Write: true, Var: v, Val: v})
	return entry{kind: entryBatch, batch: b, lo: 0, hi: 1}
}

// TestRingFIFO drives the queue with concurrent producers and one consumer
// and checks the two properties the dispatcher's correctness rests on:
// nothing is lost or duplicated, and each producer's operations arrive in
// the order it enqueued them (append order is pop order).
func TestRingFIFO(t *testing.T) {
	const producers, perProducer = 8, 5000
	r := newQueue(64) // small: exercises the buffer swap and the full path
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := uint64(p)<<32 | uint64(i)
				if err := r.enqueue(oneOp(v)); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	seen := make([]int, producers)
	total := 0
	var op entry
	for total < producers*perProducer {
		if !r.tryPop(&op) {
			r.park()
			continue
		}
		v := op.batch.ops[op.lo].get().Var
		p, i := int(v>>32), int(v&0xffffffff)
		if i != seen[p] {
			t.Fatalf("producer %d: popped index %d, want %d (FIFO violated)", p, i, seen[p])
		}
		seen[p]++
		total++
	}
	wg.Wait()
	if r.tryPop(&op) {
		t.Fatalf("queue not empty after draining everything: %+v", op)
	}
}

// TestRingCloseCompleteness races producers against close: every enqueue
// must either succeed — and then be popped before the close sentinel — or
// fail with ErrClosed. Nothing may be admitted behind the sentinel and
// nothing may vanish.
func TestRingCloseCompleteness(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := newQueue(32)
		e := oneOp(1)
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
					if err := r.enqueue(e); err != nil {
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
		var op entry
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
			if op.kind == entryClose {
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

// TestRingEnqueueBatchSpansCapacity: a window larger than the queue's
// capacity is one entry. Admitting it takes one place and returns at once,
// with no consumer running to take the queue, and the one pop hands back the
// whole window in order.
func TestRingEnqueueBatchSpansCapacity(t *testing.T) {
	r := newQueue(16)
	const n = 1000
	b := &Batch{ops: make([]batchOp, n)}
	for i := range b.ops {
		b.ops[i].set(BatchOp{Write: true, Var: uint64(i), Val: uint64(i)})
	}
	if err := r.enqueueBatch(b, 0, n); err != nil {
		t.Fatalf("enqueueBatch: %v", err)
	}
	if got := len(r.items); got != 1 {
		t.Fatalf("a %d-op window took %d queue places, want 1", n, got)
	}
	var op entry
	if !r.tryPop(&op) || op.kind != entryBatch || op.batch != b || op.lo != 0 || op.hi != n {
		t.Fatalf("popped %+v, want the window as one entry", op)
	}
	for i := op.lo; i < op.hi; i++ {
		if v := op.batch.ops[i].get().Var; v != uint64(i) {
			t.Fatalf("window op %d is variable %d", i, v)
		}
	}
	if r.tryPop(&op) {
		t.Fatalf("queue holds a second entry: %+v", op)
	}
}

// TestRingAdmissionFaultChurn is the satellite -race hammer at the service
// level: concurrent clients stream through the admission queues while a
// background goroutine fails and recovers modules and another hammers
// Flush; at the end the service closes under load. Every operation must
// complete or fail loudly (quorum verdict / ErrClosed) — no hangs, no
// silent drops.
func TestRingAdmissionFaultChurn(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, _, _ := faultService(t, 2, fs)
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
				if err := svc.Write(v, v); err != nil {
					if errors.Is(err, frontend.ErrClosed) {
						t.Errorf("client %d: admit: %v", c, err)
						return
					}
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

// TestRingEnqueueAllocs pins the admission path's allocation budget: once
// the queue's two buffers have grown, an enqueue/pop cycle is
// allocation-free (the Batch is the caller's allocation, made outside the
// measured region).
func TestRingEnqueueAllocs(t *testing.T) {
	r := newQueue(64)
	e := oneOp(7)
	var op entry
	avg := testing.AllocsPerRun(1000, func() {
		if err := r.enqueue(e); err != nil {
			t.Fatal(err)
		}
		if !r.tryPop(&op) {
			t.Fatal("pop failed after enqueue")
		}
	})
	if avg != 0 {
		t.Fatalf("queue enqueue/pop allocates %.1f per op, want 0", avg)
	}
}

// FuzzRing model-checks the queue's take/pop path single-threaded: a byte
// script drives enqueues (one-op and larger sub-batch entries) and pops
// against a plain slice model of entries, across fuzzer-chosen capacities,
// so entries are admitted while the consumer still pops an earlier take and
// the two buffers swap many times. Any divergence — wrong entry, wrong
// order, pop succeeding on an empty queue or failing on a non-empty one —
// fails.
func FuzzRing(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 2, 0, 0, 1})
	f.Add(uint8(4), []byte{3, 5, 1, 1, 1, 1, 1, 1, 0, 2})
	f.Add(uint8(3), []byte{0, 0, 0, 1, 1, 1, 3, 7, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capBits uint8, script []byte) {
		r := newQueue(1 << (capBits%4 + 1)) // 2..16 entries
		// An entry of the model: the first variable it carries and how many
		// ops.
		type modeled struct{ first, n uint64 }
		var model []modeled
		next := uint64(0)
		var op entry
		check := func() {
			t.Helper()
			want := model[0]
			model = model[1:]
			if op.kind != entryBatch || uint64(op.hi-op.lo) != want.n || op.batch.ops[op.lo].get().Var != want.first {
				t.Fatalf("popped %+v, model head is the %d-op entry from %d", op, want.n, want.first)
			}
		}
		for pc := 0; pc < len(script); pc++ {
			cmd := script[pc] % 4
			if (cmd == 0 || cmd == 3) && len(r.items) >= r.cap {
				continue // single-threaded: an enqueue into a full queue would wait forever
			}
			switch cmd {
			case 0: // enqueue a one-op batch
				if err := r.enqueue(oneOp(next)); err != nil {
					t.Fatalf("enqueue: %v", err)
				}
				model = append(model, modeled{first: next, n: 1})
				next++
			case 1: // pop one
				got := r.tryPop(&op)
				if got != (len(model) > 0) {
					t.Fatalf("tryPop=%v with %d modeled entries", got, len(model))
				}
				if got {
					check()
				}
			case 2: // drain fully
				for r.tryPop(&op) {
					if len(model) == 0 {
						t.Fatal("popped from an empty model")
					}
					check()
				}
				if len(model) != 0 {
					t.Fatalf("queue empty but model holds %d", len(model))
				}
			case 3: // a sub-batch of 1..256 ops: one entry, however many ops
				pc++
				if pc >= len(script) {
					break
				}
				n := int(script[pc]) + 1
				b := &Batch{ops: make([]batchOp, n+1)} // ops[0] is not in the entry
				for i := 1; i <= n; i++ {
					b.ops[i].set(BatchOp{Write: true, Var: next + uint64(i-1), Val: 1})
				}
				if err := r.enqueueBatch(b, 1, int32(n+1)); err != nil {
					t.Fatalf("enqueueBatch: %v", err)
				}
				model = append(model, modeled{first: next, n: uint64(n)})
				next += uint64(n)
			}
		}
		// Final drain: the queue and the model must agree to the last entry.
		for r.tryPop(&op) {
			if len(model) == 0 {
				t.Fatal("final drain popped past the model")
			}
			check()
		}
		if len(model) != 0 {
			t.Fatalf("%d modeled entries never popped", len(model))
		}
	})
}

// TestRingDepthObservability checks the queue's high-water mark and its
// park/wake counters reach Stats.
func TestRingDepthObservability(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 1, maxBatch: 8})
	for i := 0; i < 64; i++ {
		if err := svc.Write(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats().Total
	if st.MaxQueueDepth < 1 {
		t.Fatalf("MaxQueueDepth %d, want >= 1", st.MaxQueueDepth)
	}
	if st.FlusherParks == 0 {
		t.Fatalf("flusher never parked across 64 synchronous writes: %+v", st)
	}
	if st.FlusherWakes == 0 {
		t.Fatalf("no producer wake recorded: %+v", st)
	}
}
