package shard

import (
	"errors"
	"fmt"
	"math"
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
		svc := newService(t, 3, Config{Shards: 4, MaxBatch: 8})
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
	svc := newService(t, 3, Config{Shards: 4, MaxBatch: 16})
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
// immediately; a batch against a closed service fails with ErrClosed.
func TestAccessBatchEmptyAndClosed(t *testing.T) {
	svc, err := New(testMapper(t, 3), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.AccessBatch(nil)
	if err != nil || b.Len() != 0 {
		t.Fatalf("empty batch: %v, len %d", err, b.Len())
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AccessBatch([]BatchOp{{Var: 1}}); !errors.Is(err, frontend.ErrClosed) {
		t.Fatalf("batch after close: %v, want ErrClosed", err)
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
// futures, and its order map), admitting through the rings allocates nothing
// — the partition scratch is pooled, and each shard's sub-batch is one ring
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
		// Flush completes every admitted future (sentinel semantics), so
		// the Wait sweep below never mints a lazy done channel per op.
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	// Batch + ops + order map = 3, plus one Flush ack channel per shard
	// (4): the budget is O(1) per call — 64 pending Waits would blow far
	// past it.
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
// a ring when the test overwrites the slice — variables, values and kinds —
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
				p.step()             // the window's sub-batch, flushed when the ring runs dry
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
