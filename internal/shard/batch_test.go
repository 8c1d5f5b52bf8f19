package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// TestAccessBatchRoundTrip runs the batch API through every
// shard-count cell: a write batch followed by a read batch of the
// same variables must return the written values, and intra-batch
// write→read on one variable must forward the pending write's value.
func TestAccessBatchRoundTrip(t *testing.T) {
	for _, cfg := range configs() {
		t.Run(cfg.name(), func(t *testing.T) {
			svc := newService(t, 3, cfg)
			const n = 40
			writes := make([]BatchOp, n)
			for i := range writes {
				writes[i] = BatchOp{Write: true, Var: uint64(i), Val: uint64(i) + 1000}
			}
			wb, err := svc.AccessBatch(writes)
			if err != nil {
				t.Fatalf("write batch: %v", err)
			}
			if err := wb.Wait(); err != nil {
				t.Fatalf("write batch wait: %v", err)
			}
			if wb.Len() != n {
				t.Fatalf("batch len %d, want %d", wb.Len(), n)
			}
			reads := make([]BatchOp, n)
			for i := range reads {
				reads[i] = BatchOp{Var: uint64(i)}
			}
			rb, err := svc.AccessBatch(reads)
			if err != nil {
				t.Fatalf("read batch: %v", err)
			}
			for i := 0; i < n; i++ {
				got, err := rb.Value(i)
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if got != uint64(i)+1000 {
					t.Fatalf("read %d: got %d, want %d", i, got, uint64(i)+1000)
				}
			}

			// Intra-batch write→read: the read rides the pending write.
			mixed, err := svc.AccessBatch([]BatchOp{
				{Write: true, Var: 7, Val: 4242},
				{Var: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := mixed.Value(1); err != nil || got != 4242 {
				t.Fatalf("intra-batch read-after-write: got %d, %v; want 4242", got, err)
			}
		})
	}
}

// TestAccessBatchMatchesPerOp is the differential check: the same operation
// sequence through AccessBatch windows of 30 and through blocking Read and
// Write — one-op batches — must return the same read values (per-variable
// linearizability does not depend on how the ops are grouped into entries).
func TestAccessBatchMatchesPerOp(t *testing.T) {
	mkops := func() []BatchOp {
		ops := make([]BatchOp, 0, 300)
		for i := 0; i < 100; i++ {
			v := uint64(i % 17)
			ops = append(ops,
				BatchOp{Write: true, Var: v, Val: uint64(i)},
				BatchOp{Var: v},
				BatchOp{Var: uint64((i + 5) % 17)},
			)
		}
		return ops
	}

	run := func(t *testing.T, batched bool) []uint64 {
		svc := newService(t, 3, Config{Shards: 4, maxBatch: 8})
		ops := mkops()
		vals := make([]uint64, len(ops))
		if batched {
			// Windows of 30 keep several shards touched per call.
			for lo := 0; lo < len(ops); lo += 30 {
				hi := lo + 30
				b, err := svc.AccessBatch(ops[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				for i := lo; i < hi; i++ {
					v, err := b.Value(i - lo)
					if err != nil {
						t.Fatal(err)
					}
					vals[i] = v
				}
			}
			return vals
		}
		// One blocking Read or Write at a time: each a one-op batch.
		for i, op := range ops {
			var err error
			if op.Write {
				err = svc.Write(op.Var, op.Val)
			} else {
				vals[i], err = svc.Read(op.Var)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return vals
	}

	batched := run(t, true)
	perOp := run(t, false)
	for i := range batched {
		if batched[i] != perOp[i] {
			t.Fatalf("op %d: batched returned %d, per-op returned %d", i, batched[i], perOp[i])
		}
	}
}

// TestAccessBatchConcurrent hammers AccessBatch from many clients with
// overlapping variable sets under -race: per-variable writes are tagged by
// client, and every read must observe some committed tag (zero included:
// unwritten), never a torn or stale-uncommitted value.
func TestAccessBatchConcurrent(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 4, maxBatch: 16})
	const clients, rounds, span = 8, 50, 24
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ops := make([]BatchOp, 0, span*2)
				for v := 0; v < span; v++ {
					ops = append(ops,
						BatchOp{Write: true, Var: uint64(v), Val: uint64(c)<<32 | uint64(r)},
						BatchOp{Var: uint64(v)})
				}
				b, err := svc.AccessBatch(ops)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for i := 0; i < b.Len(); i++ {
					if _, err := b.Value(i); err != nil {
						t.Errorf("client %d: op %d: %v", c, i, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestAccessBatchEmptyAndClosed covers the edges: an empty batch succeeds
// immediately; a batch against a closed service fails with ErrClosed and
// returns no Batch — one that was never admitted would never complete.
func TestAccessBatchEmptyAndClosed(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			svc, err := New(testMapper(t, 3), Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			b, err := svc.AccessBatch(nil)
			if err != nil || b.Len() != 0 || b.Wait() != nil {
				t.Fatalf("empty batch: %v, len %d", err, b.Len())
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			b, err = svc.AccessBatch([]BatchOp{{Var: 1}, {Var: 2}, {Var: 3}})
			if !errors.Is(err, frontend.ErrClosed) || b != nil {
				t.Fatalf("batch after close: %v, %v; want nil, ErrClosed", b, err)
			}
		})
	}
}

// TestAccessBatchErrorAttribution: a batch touching a stranded variable
// gets the quorum verdict on exactly that op while the batch's healthy ops
// commit — the fault layer's per-request attribution threads through the
// batch path unchanged.
func TestAccessBatchErrorAttribution(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, idx, _ := faultService(t, 2, fs)
	defer svc.Close()

	victim := uint64(10)
	for _, m := range s.VarModules(nil, idx.Mat(victim)) {
		fs.Fail(m)
	}
	ops := []BatchOp{
		{Write: true, Var: victim, Val: 1},
		{Write: true, Var: 2, Val: 22},
		{Var: 2},
	}
	b, err := svc.AccessBatch(ops)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if _, err := b.Value(0); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("victim op: %v, want ErrQuorumUnreachable", err)
	}
	if _, err := b.Value(1); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	if got, err := b.Value(2); err != nil || got != 22 {
		t.Fatalf("healthy read: %d, %v; want 22", got, err)
	}
	if werr := b.Wait(); !errors.Is(werr, protocol.ErrQuorumUnreachable) {
		t.Fatalf("batch Wait: %v, want the victim's verdict", werr)
	}
}

// TestAccessBatchAllocs pins the batch admission cost: beyond the three
// documented allocations (the Batch, its copy of the ops beside their
// futures, and its order map), admitting through the queues allocates nothing
// — the partition scratch is pooled, and each shard's sub-batch is one queue
// entry pointing into the Batch.
func TestAccessBatchAllocs(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 4})
	ops := make([]BatchOp, 64)
	for i := range ops {
		ops[i] = BatchOp{Write: true, Var: uint64(i), Val: 1}
	}
	// Warm the pool and the rings.
	if b, err := svc.AccessBatch(ops); err != nil {
		t.Fatal(err)
	} else if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		b, err := svc.AccessBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		// Flush commits every admitted op (sentinel semantics), so Wait
		// finds the batch complete and reads its cells without parking.
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	// Batch + ops + order map = 3, plus one Flush ack channel per shard
	// (4): the budget is O(1) per call, not O(ops).
	if avg > 10 {
		t.Fatalf("AccessBatch allocates %.1f per call, want <= 10 (must stay O(1) per call, not O(ops))", avg)
	}
}

// heldService is a Service over gated in-memory backends: each shard's
// flusher is held inside a primer batch until the test releases it, so
// whatever AccessBatch admits meanwhile waits in the rings.
func heldService(t *testing.T, shards int) (*Service, []*probe) {
	t.Helper()
	s := &Service{shards: make([]*shardState, shards)}
	probes := make([]*probe, shards)
	for i := range s.shards {
		probes[i] = newProbe(&mapBackend{}, true)
		d := newPipeDispatcher(probes[i], math.MaxUint64, 64, 64)
		t.Cleanup(func() { d.Close() })
		s.shards[i] = &shardState{d: d}
	}
	for i, st := range s.shards {
		// A primer variable that routes to shard i, far from the test's.
		v := uint64(1) << 40
		for s.Route(v) != i {
			v++
		}
		prime(t, st.d, probes[i], v)
	}
	return s, probes
}

// TestAccessBatchOwnsItsOps: the caller may reuse its ops slice the moment
// AccessBatch returns. The flushers are held, so every op is still waiting in
// a queue when the test overwrites the slice — variables, values and kinds —
// and every result must still be that of the ops as submitted: each write
// lands, each read sees the write before it in the window. An AccessBatch
// that kept the caller's slice would serve the overwritten ops instead.
func TestAccessBatchOwnsItsOps(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc, probes := heldService(t, shards)
			const n = 24
			ops := make([]BatchOp, 0, 2*n)
			for v := uint64(0); v < n; v++ {
				ops = append(ops, BatchOp{Write: true, Var: v, Val: 100 + v}, BatchOp{Var: v})
			}
			b, err := svc.AccessBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ops {
				ops[i] = BatchOp{Write: i%2 == 1, Var: uint64(i) + 1000, Val: 7}
			}
			for _, p := range probes {
				p.gate <- struct{}{} // release the primer batch (already entered)
				p.step()             // the window's sub-batch, flushed when the queue runs dry
			}
			for i := 0; i < b.Len(); i++ {
				val, err := b.Value(i)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if want := 100 + uint64(i/2); i%2 == 1 && val != want {
					t.Errorf("read of variable %d = %d, want %d (the value written just before it)", i/2, val, want)
				}
			}
			seen := map[uint64]uint64{}
			for _, p := range probes {
				for _, batch := range p.recorded()[1:] {
					for _, rq := range batch {
						if rq.Var >= 1000 {
							t.Errorf("an overwritten op reached the backend: %+v", rq)
						}
						if rq.Op == protocol.Write {
							seen[rq.Var] = rq.Value
						}
					}
				}
			}
			for v := uint64(0); v < n; v++ {
				if seen[v] != 100+v {
					t.Errorf("variable %d: backend received write %d, want %d", v, seen[v], 100+v)
				}
			}
		})
	}
}

// latch is a backend whose flushes all wait until the test closes open;
// entered reports that the first flush has arrived.
type latch struct {
	backend
	entered chan struct{}
	open    chan struct{}
}

func (l *latch) AccessDistinctInto(b *protocol.DistinctBatch, res *protocol.Result) error {
	select {
	case l.entered <- struct{}{}:
	default:
	}
	<-l.open
	return l.backend.AccessDistinctInto(b, res)
}

// latchedService is a Service over in-memory backends serving [0, numVars),
// where variable 500+x holds 7000+x for x < 4, whose flushers are each held
// inside a primer batch — the write of the largest variable routed to the
// shard, seq 1 — until open is called, so whatever AccessBatch admits
// meanwhile waits in the rings.
func latchedService(t *testing.T, shards, maxBatch int, numVars uint64) (svc *Service, open func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	svc = &Service{shards: make([]*shardState, shards)}
	for i := range svc.shards {
		store := map[uint64]uint64{500: 7000, 501: 7001, 502: 7002, 503: 7003}
		l := &latch{backend: &mapBackend{store: store}, entered: make(chan struct{}, 1), open: gate}
		d := newPipeDispatcher(l, numVars, maxBatch, 64)
		t.Cleanup(func() { open(); d.Close() })
		svc.shards[i] = &shardState{d: d}
		v := numVars - 1
		for svc.Route(v) != i {
			v--
		}
		if _, err := enqueue(d, BatchOp{Write: true, Var: v, Val: 1}); err != nil {
			t.Fatal(err)
		}
		<-l.entered
	}
	return svc, open
}

// TestBatchCompletionRace runs K goroutines — each opening with Wait,
// Value or Seq — against one Batch while its completion lands before any of
// them starts, between two halves of them, or after all of them are running
// (and, when the scheduler lets them, parked). Every one must see every op's
// final value, error and sequence number, and Wait the first error in the
// caller's op order. The "split" batch mixes forwarded reads, coalesced
// writes, combined reads and two refused ops, and maxBatch 4 splits each
// shard's sub-batch across size flushes; in the "refused" batch every entry's
// ops are all out of range, so no flush completes it. A batch completed
// before anyone waits answers Wait, Value and Seq without allocating. Run
// under -race it pins completion: the flusher's plain stores into the cells,
// published by one WaitGroup Done per sub-batch.
func TestBatchCompletionRace(t *testing.T) {
	const waiters, rounds, maxBatch, numVars = 6, 30, 4, 1 << 20
	for _, shards := range []int{1, 3} {
		// Two refused variables, the first in the caller's order routed to
		// the last shard and the second to the first, so at S=3 the order
		// the Batch stores them in is not the caller's.
		bad1 := uint64(numVars)
		for route(bad1, shards) != shards-1 {
			bad1++
		}
		bad2 := bad1 + 1
		for route(bad2, shards) != 0 {
			bad2++
		}
		shapes := map[string][]BatchOp{}
		for v := uint64(0); v < 12; v++ {
			shapes["split"] = append(shapes["split"],
				BatchOp{Write: true, Var: v, Val: 100 + v},
				BatchOp{Var: v}, // forwarded 100+v, or read back after a size flush
				BatchOp{Var: 500 + v%4},
				BatchOp{Write: true, Var: v, Val: 200 + v})
			if v == 2 {
				shapes["split"] = append(shapes["split"], BatchOp{Var: bad1})
			} else if v == 5 {
				shapes["split"] = append(shapes["split"], BatchOp{Write: true, Var: bad2, Val: 1})
			}
		}
		for i := range 6 {
			shapes["refused"] = append(shapes["refused"], BatchOp{Write: i%2 == 0, Var: []uint64{bad1, bad2}[i%2]})
		}
		for _, shape := range []string{"split", "refused"} {
			ops := shapes[shape]
			// The model: reads of v see 100+v, reads of 500+x see 7000+x;
			// refused ops fail with seq 0; each shard numbers its admitted
			// ops in the caller's order after its primer's 1.
			type result struct {
				val, seq uint64
				refused  bool
			}
			want := make([]result, len(ops))
			next := make([]uint64, shards)
			for i, op := range ops {
				if op.Var >= numVars {
					want[i].refused = true
					continue
				}
				sh := route(op.Var, shards)
				next[sh]++
				want[i].seq = next[sh] + 1
				switch {
				case op.Write:
				case op.Var < 500:
					want[i].val = 100 + op.Var
				default:
					want[i].val = 6500 + op.Var
				}
			}
			firstErr := fmt.Sprintf("variable %d of", bad1)
			for _, land := range []string{"before", "between", "after"} {
				t.Run(fmt.Sprintf("S=%d/%s/%s", shards, shape, land), func(t *testing.T) {
					for round := range rounds {
						svc, open := latchedService(t, shards, maxBatch, numVars)
						b, err := svc.AccessBatch(ops)
						if err != nil {
							t.Fatal(err)
						}
						verify := func(k int) {
							switch k % 3 { // what the goroutine waits with
							case 0:
								b.Wait()
							case 1:
								b.Value(len(ops) - 1)
							case 2:
								b.Seq(0)
							}
							if err := b.Wait(); err == nil || !strings.Contains(err.Error(), firstErr) {
								t.Errorf("round %d: Wait = %v, want the error of %d, the caller's first refused op", round, err, bad1)
							}
							for i, w := range want {
								val, err := b.Value(i)
								if w.refused != errors.Is(err, protocol.ErrVarOutOfRange) || (!w.refused && err != nil) {
									t.Errorf("round %d op %d: error %v, refused %v", round, i, err, w.refused)
								}
								if val != w.val {
									t.Errorf("round %d op %d: value %d, want %d", round, i, val, w.val)
								}
								if seq := b.Seq(i); seq != w.seq {
									t.Errorf("round %d op %d: seq %d, want %d", round, i, seq, w.seq)
								}
							}
						}
						var wg sync.WaitGroup
						start := func(from, to int) {
							for k := from; k < to; k++ {
								wg.Add(1)
								go func() {
									defer wg.Done()
									verify(k)
								}()
							}
						}
						switch land {
						case "before":
							open()
							if err := svc.Flush(); err != nil {
								t.Fatal(err)
							}
							if avg := testing.AllocsPerRun(20, func() {
								b.Wait()
								b.Value(0)
								b.Seq(0)
							}); avg != 0 {
								t.Fatalf("Wait, Value and Seq on a completed batch allocate %.1f", avg)
							}
							start(0, waiters)
						case "between":
							start(0, waiters/2)
							runtime.Gosched()
							open()
							start(waiters/2, waiters)
						case "after":
							start(0, waiters)
							for range 20 {
								runtime.Gosched()
							}
							open()
						}
						wg.Wait()
						if s := svc.Stats().Total; shape == "split" && s.SizeFlushes == 0 {
							t.Fatalf("round %d: no size flush split the batch: %+v", round, s)
						}
					}
				})
			}
		}
	}
}
