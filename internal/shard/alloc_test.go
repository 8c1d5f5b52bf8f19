package shard

import (
	"fmt"
	"testing"
	"unsafe"

	"detshmem/internal/frontend"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// TestShardFlushSteadyStateAllocs pins the dispatcher's flush
// path — AccessDistinctInto on the batch admission built and the shard's
// reused Result, stats accounting, the obs flush/batch/round hooks, fan-out, and
// batch Reset/recycling — at zero allocations per batch in steady state.
// The only allocations on the sharded hot path are
// the clients' futures, which are made outside the measured region here
// exactly as client goroutines make them (inside their Batch) in production.
func TestShardFlushSteadyStateAllocs(t *testing.T) {
	// The subtest keeps the id the committed test floor lists.
	t.Run("sequential", func(t *testing.T) {
		// obs hooks installed: the guard covers the enabled path.
		col := obs.NewCollector()
		svc := newService(t, 3, Config{
			Shards:   2,
			Protocol: protocol.Config{Observer: col, Recorder: col},
		})
		d := svc.shards[0].d
		// Stop the flusher so the measured code owns the dispatcher's
		// scratch; the flush path below is byte-for-byte the one the
		// flusher runs.
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		const opsPer = 6
		p := frontend.NewPending(opsPer)
		admit := func(futs []*frontend.Future) {
			for k := 0; k < opsPer; k++ {
				// Same keys every round: entry and bucket churn must
				// recycle, not grow.
				if k%2 == 0 {
					p.Write(uint64(k+1), uint64(k), uint64(k), futs[k])
				} else {
					p.Read(uint64(k+1), uint64(k+10), futs[k])
				}
			}
		}
		mint := func() []*frontend.Future {
			futs := make([]*frontend.Future, opsPer)
			for i := range futs {
				futs[i] = new(frontend.Future)
			}
			return futs
		}
		// Warm-up sizes every reused buffer (requests, Result, protocol
		// scratch, entry freelist).
		for i := 0; i < 3; i++ {
			admit(mint())
			d.flushOne(p, frontend.FlushSize)
			p.Reset()
		}

		const runs = 100
		pool := make([][]*frontend.Future, runs+2) // +1 for AllocsPerRun's warm-up call
		for i := range pool {
			pool[i] = mint()
		}
		next := 0
		if avg := testing.AllocsPerRun(runs, func() {
			admit(pool[next])
			next++
			d.flushOne(p, frontend.FlushSize)
			p.Reset()
		}); avg != 0 {
			t.Fatalf("sharded flush path allocates %.2f per batch in steady state, want 0", avg)
		}
	})
}

// TestReadWriteAllocs pins the blocking API's allocation budget: a Read or a
// Write is one allocation for its one-op batch (the Batch, its WaitGroup and
// its op are one object) — waiting before the batch commits parks on the
// WaitGroup, which allocates nothing — whatever the shard count.
func TestReadWriteAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			svc := newService(t, 3, Config{Shards: shards})
			v := uint64(0)
			avg := testing.AllocsPerRun(200, func() {
				v = (v + 1) % 84 // the n=3 scheme has 84 variables
				if err := svc.Write(v, v); err != nil {
					t.Fatal(err)
				}
				if got, err := svc.Read(v); err != nil || got != v {
					t.Fatalf("read %d = %d, %v", v, got, err)
				}
			})
			if perCall := avg / 2; perCall > 1 {
				t.Fatalf("a blocking Read or Write allocates %.2f, want <= 1", perCall)
			}
		})
	}
}

// TestPerOpSizes pins what one client op costs in memory: its Future is a
// bare result cell — value, error and sequence number, no synchronization —
// and the batchOp an AccessBatch allocates per op — result cell plus the
// op's copy — stays at 56 bytes.
func TestPerOpSizes(t *testing.T) {
	if size := unsafe.Sizeof(frontend.Future{}); size > 32 {
		t.Errorf("frontend.Future is %d bytes, want <= 32", size)
	}
	if size := unsafe.Sizeof(batchOp{}); size > 56 {
		t.Errorf("batchOp is %d bytes, want <= 56", size)
	}
}
