package shard

import (
	"errors"
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
// sequence through AccessBatch and through the per-op API must leave the
// store in the same state and return the same read values (per-variable
// linearizability is admission-path independent).
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
		futs := make([]*frontend.Future, len(ops))
		for i, op := range ops {
			var err error
			if op.Write {
				futs[i], err = svc.WriteAsync(op.Var, op.Val)
			} else {
				futs[i], err = svc.ReadAsync(op.Var)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Window of 30, mirroring the batched run's commit boundaries.
			if (i+1)%30 == 0 {
				for j := i - 29; j <= i; j++ {
					v, err := futs[j].Wait()
					if err != nil {
						t.Fatal(err)
					}
					vals[j] = v
				}
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
	svc, s, idx := faultService(t, 2, fs, protocol.Config{})
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

// TestAccessBatchAllocs pins the batch admission cost: beyond the three documented allocations (futs slice, future slab,
// and the Batch header), admitting through the rings allocates nothing —
// the partition scratch is pooled.
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
	// futs + slab + Batch header = 3, plus one Flush ack channel per shard
	// (4): the budget is O(1) per call — 64 pending Waits would blow far
	// past it.
	if avg > 10 {
		t.Fatalf("AccessBatch allocates %.1f per call, want <= 10 (must stay O(1) per call, not O(ops))", avg)
	}
}
