package shard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"detshmem/internal/frontend"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// These tests drive a pipeDispatcher directly over substituted backends, the
// only way to pin down which ops land in which batch.

// mapBackend applies batches to a plain map, or fails every batch with err.
type mapBackend struct {
	store map[uint64]uint64
	err   error
}

func (b *mapBackend) AccessDistinctInto(batch *protocol.DistinctBatch, res *protocol.Result) error {
	if b.err != nil {
		return b.err
	}
	reqs := batch.Requests()
	if b.store == nil {
		b.store = make(map[uint64]uint64)
	}
	res.Values = make([]uint64, len(reqs))
	for i, r := range reqs {
		if r.Op != protocol.Write {
			res.Values[i] = b.store[r.Var]
		}
		if r.Op != protocol.Read {
			b.store[r.Var] = r.Value
		}
	}
	return nil
}

func (*mapBackend) RepairBacklog() int { return 0 }
func (*mapBackend) RepairStep() bool   { return false }

// probe records every batch on its way to the wrapped backend. When gated,
// every AccessDistinctInto call announces itself on entered and then blocks until
// the test sends on gate, letting tests hold the flusher inside a flush while
// they stage the admission ring.
type probe struct {
	backend
	mu      sync.Mutex
	batches [][]protocol.Request
	entered chan struct{}
	gate    chan struct{}
}

func newProbe(b backend, gated bool) *probe {
	p := &probe{backend: b}
	if gated {
		p.entered = make(chan struct{})
		p.gate = make(chan struct{})
	}
	return p
}

func (p *probe) AccessDistinctInto(b *protocol.DistinctBatch, res *protocol.Result) error {
	if p.gate != nil {
		p.entered <- struct{}{}
		<-p.gate
	}
	p.mu.Lock()
	p.batches = append(p.batches, append([]protocol.Request(nil), b.Requests()...))
	p.mu.Unlock()
	return p.backend.AccessDistinctInto(b, res)
}

// step waits for the flusher to enter its next AccessDistinctInto call and releases
// it.
func (p *probe) step() {
	<-p.entered
	p.gate <- struct{}{}
}

func (p *probe) recorded() [][]protocol.Request {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batches
}

// enqueue admits op into d's ring as a one-op AccessBatch entry — the entry
// a blocking Read or Write admits — and returns its Batch.
func enqueue(d *pipeDispatcher, op BatchOp) (*Batch, error) {
	b := &Batch{ops: make([]batchOp, 1)}
	b.ops[0].set(op)
	b.done.Add(1)
	if err := d.ring.enqueueBatch(b, 0, 1); err != nil {
		return nil, err
	}
	return b, nil
}

// prime submits one throwaway write of v and waits for the flusher to enter
// its (idle-triggered) flush, so every op staged afterwards sits in the ring
// until the primer batch is released and is then admitted in one
// uninterrupted run.
func prime(t *testing.T, d *pipeDispatcher, p *probe, v uint64) *Batch {
	t.Helper()
	b, err := enqueue(d, BatchOp{Write: true, Var: v, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-p.entered
	return b
}

// access admits op and waits for it, as a blocking Read or Write does.
func access(d *pipeDispatcher, op BatchOp) (uint64, error) {
	b, err := enqueue(d, op)
	if err != nil {
		return 0, err
	}
	return b.Value(0)
}

// TestCombiningSemantics drives the full coalescing matrix deterministically:
// forwarding, last-writer-wins, read combining, and a write after an issued
// read joining it as one ReadWrite request — no flush between them.
func TestCombiningSemantics(t *testing.T) {
	p := newProbe(&mapBackend{store: map[uint64]uint64{2: 7}}, true)
	d := newPipeDispatcher(p, math.MaxUint64, 8, 64)
	primer := prime(t, d, p, 1<<40)

	// Staged while the flusher is stuck in the primer's flush.
	w1, _ := enqueue(d, BatchOp{Write: true, Var: 1, Val: 10})
	r1, _ := enqueue(d, BatchOp{Var: 1}) // forwarded: 10
	w2, _ := enqueue(d, BatchOp{Write: true, Var: 1, Val: 20})
	r2, _ := enqueue(d, BatchOp{Var: 1})                      // forwarded: 20
	r3, _ := enqueue(d, BatchOp{Var: 2})                      // issued read
	r4, _ := enqueue(d, BatchOp{Var: 2})                      // combined with r3
	w3, _ := enqueue(d, BatchOp{Write: true, Var: 2, Val: 5}) // joins the read: one ReadWrite
	r5, _ := enqueue(d, BatchOp{Var: 2})                      // forwarded: 5

	p.gate <- struct{}{} // release the primer batch (already entered)
	p.step()             // the combined batch, flushed when the ring runs dry
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	r6, _ := enqueue(d, BatchOp{Var: 2}) // a later batch reads the write
	p.step()

	if err := primer.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		b    *Batch
		want uint64
	}{{w1, 0}, {r1, 10}, {w2, 0}, {r2, 20}, {r3, 7}, {r4, 7}, {w3, 0}, {r5, 5}, {r6, 5}} {
		got, err := tc.b.Value(0)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != tc.want {
			t.Fatalf("op %d: got %d, want %d", i, got, tc.want)
		}
	}

	batches := p.recorded()
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (primer, combined, later read): %v", len(batches), batches)
	}
	want := []protocol.Request{
		{Var: 1, Op: protocol.Write, Value: 20},
		{Var: 2, Op: protocol.ReadWrite, Value: 5},
	}
	if fmt.Sprint(batches[1]) != fmt.Sprint(want) {
		t.Fatalf("combined batch %v, want %v", batches[1], want)
	}

	s := d.Stats()
	if s.ForwardedReads != 3 || s.CombinedReads != 1 || s.CoalescedWrites != 1 || s.UpgradedWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ConflictFlushes != 0 || s.Batches != 3 {
		t.Fatalf("batches = %d with %d conflict flushes, want 3 and 0", s.Batches, s.ConflictFlushes)
	}
	// 8 staged ops, the primer and the later read in; 4 requests out
	// (primer, write 1, read-write 2, read 2).
	if s.OpsIn != 10 || s.RequestsOut != 4 {
		t.Fatalf("ops in/out = %d/%d", s.OpsIn, s.RequestsOut)
	}
	if s.CombiningRate() != 0.6 {
		t.Fatalf("combining rate = %v", s.CombiningRate())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSizeFlush checks the maxBatch threshold splits a staged run of
// distinct variables into full batches.
func TestSizeFlush(t *testing.T) {
	p := newProbe(&mapBackend{}, true)
	d := newPipeDispatcher(p, math.MaxUint64, 4, 64)
	prime(t, d, p, 1<<40)
	bs := make([]*Batch, 8)
	for i := range bs {
		var err error
		if bs[i], err = enqueue(d, BatchOp{Write: true, Var: uint64(i), Val: uint64(i) + 100}); err != nil {
			t.Fatal(err)
		}
	}
	p.gate <- struct{}{} // release the primer batch (already entered)
	p.step()             // first full batch of 4
	p.step()             // second full batch of 4
	for _, b := range bs {
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []int{}
	for _, batch := range p.recorded() {
		sizes = append(sizes, len(batch))
	}
	if fmt.Sprint(sizes) != "[1 4 4]" {
		t.Fatalf("batch sizes = %v, want [1 4 4]", sizes)
	}
	if s := d.Stats(); s.SizeFlushes != 2 {
		t.Fatalf("size flushes = %d", s.SizeFlushes)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendErrorFansOut: a failing backend fails every waiter in the
// batch with the backend's error.
func TestBackendErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	d := newPipeDispatcher(&mapBackend{err: boom}, math.MaxUint64, 4, 64)
	if _, err := access(d, BatchOp{Var: 7}); !errors.Is(err, boom) {
		t.Fatalf("read error = %v, want boom", err)
	}
	if _, err := access(d, BatchOp{Write: true, Var: 7, Val: 1}); !errors.Is(err, boom) {
		t.Fatalf("write error = %v, want boom", err)
	}
	if s := d.Stats(); s.FailedBatches != 2 {
		t.Fatalf("failed batches = %d", s.FailedBatches)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfRangeOpFailsAlone: an op naming a variable the mapper does not
// have is refused by itself. The protocol fails a whole batch on one bad
// variable, so were the op admitted, every client whose op happened to
// coalesce with it would fail with an error naming a variable it never sent,
// and its writes would not be applied.
func TestOutOfRangeOpFailsAlone(t *testing.T) {
	t.Run("AccessBatch", func(t *testing.T) {
		svc := newService(t, 3, Config{}) // S=1, M=84
		b, err := svc.AccessBatch([]BatchOp{
			{Write: true, Var: 1, Val: 11},
			{Write: true, Var: 2, Val: 22},
			{Var: 89},
			{Write: true, Var: 3, Val: 33},
			{Var: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			got, err := b.Value(i)
			switch {
			case i == 2:
				if !errors.Is(err, protocol.ErrVarOutOfRange) {
					t.Errorf("op on variable 89: %v, want ErrVarOutOfRange", err)
				}
			case err != nil:
				t.Errorf("op %d failed alongside the bad variable: %v", i, err)
			case i == 4 && got != 11:
				t.Errorf("read of 1 in the batch = %d, want 11", got)
			}
		}
		if err := b.Wait(); !errors.Is(err, protocol.ErrVarOutOfRange) {
			t.Errorf("batch Wait = %v, want the bad op's verdict", err)
		}
		for v, want := range map[uint64]uint64{1: 11, 2: 22, 3: 33} {
			if got, err := svc.Read(v); err != nil || got != want {
				t.Errorf("read back %d = %d, %v; want %d", v, got, err, want)
			}
		}
	})

	t.Run("two clients, one batch", func(t *testing.T) {
		m := testMapper(t, 3)
		sys, err := protocol.NewGenericSystem(m, protocol.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p := newProbe(sys, true)
		d := newPipeDispatcher(p, m.NumVars(), 8, 64)
		prime(t, d, p, m.NumVars()-1)

		// Both clients stage their windows while the flusher is held in the
		// primer's flush, so all six ops coalesce into one batch.
		type window struct{ write, bad, read *Batch }
		var wins [2]window
		var wg sync.WaitGroup
		for c := range wins {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				v := uint64(c + 1)
				wins[c].write, _ = enqueue(d, BatchOp{Write: true, Var: v, Val: v * 10})
				wins[c].bad, _ = enqueue(d, BatchOp{Var: m.NumVars() + 5 + uint64(c)})
				wins[c].read, _ = enqueue(d, BatchOp{Var: v})
			}(c)
		}
		wg.Wait()
		p.gate <- struct{}{} // release the primer batch (already entered)
		p.step()             // the two clients' coalesced batch

		for c, w := range wins {
			if err := w.bad.Wait(); !errors.Is(err, protocol.ErrVarOutOfRange) {
				t.Errorf("client %d bad op: %v, want ErrVarOutOfRange", c, err)
			}
			if err := w.write.Wait(); err != nil {
				t.Errorf("client %d write failed alongside a bad variable: %v", c, err)
			}
			if got, err := w.read.Value(0); err != nil || got != uint64(c+1)*10 {
				t.Errorf("client %d read = %d, %v; want %d", c, got, err, (c+1)*10)
			}
		}
		batches := p.recorded()
		if len(batches) != 2 || len(batches[1]) != 2 {
			t.Fatalf("batches = %v, want the primer and one batch of the two writes", batches)
		}
		if s := d.Stats(); s.OpsIn != 5 || s.FailedBatches != 0 {
			t.Errorf("stats = %+v, want 5 ops in (the refused ops take no place) and no failed batch", s)
		}
		for c := range wins {
			b, err := enqueue(d, BatchOp{Var: uint64(c + 1)})
			if err != nil {
				t.Fatal(err)
			}
			p.step()
			if got, err := b.Value(0); err != nil || got != uint64(c+1)*10 {
				t.Errorf("read back %d = %d, %v", c+1, got, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTinyRingBackpressure: a two-slot ring still completes a concurrent
// workload — submitters block on the full ring instead of failing — and
// every client reads its own writes back.
func TestTinyRingBackpressure(t *testing.T) {
	m := testMapper(t, 3)
	sys, err := protocol.NewGenericSystem(m, protocol.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := newPipeDispatcher(sys, m.NumVars(), 8, 2)
	defer d.Close()
	var wg sync.WaitGroup
	for c := uint64(0); c < 8; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); i < 50; i++ {
				if _, err := access(d, BatchOp{Write: true, Var: c, Val: c<<8 | i}); err != nil {
					t.Error(err)
					return
				}
				if got, err := access(d, BatchOp{Var: c}); err != nil || got != c<<8|i {
					t.Errorf("client %d read %d, %v; want %d", c, got, err, c<<8|i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if s := d.Stats(); s.OpsIn != 800 {
		t.Fatalf("ops in = %d, want 800", s.OpsIn)
	}
}

// TestStatsReadYourOps pins the accounting order of flushOne: stats are
// updated under statsMu BEFORE the flush completes any futures, so once a
// synchronous write returns, Stats() must already include that operation.
func TestStatsReadYourOps(t *testing.T) {
	d := newPipeDispatcher(&mapBackend{}, math.MaxUint64, 4, 64)
	defer d.Close()
	for i := 1; i <= 50; i++ {
		if _, err := access(d, BatchOp{Write: true, Var: uint64(i), Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().OpsIn; got < int64(i) {
			t.Fatalf("after write %d returned, Stats().OpsIn = %d: flush completed the future before accounting", i, got)
		}
	}
}

// TestStatsConcurrentWithFlushes hammers Stats from several goroutines
// while writers drive a steady stream of flushes. Run under -race this
// pins the snapshot path to the same lock the flusher's accounting takes;
// the invariant checks catch torn or out-of-order snapshots even without the
// race detector.
func TestStatsConcurrentWithFlushes(t *testing.T) {
	d := newPipeDispatcher(&mapBackend{}, math.MaxUint64, 8, 64)

	const writers, opsPerWriter, readers = 4, 300, 4
	var stop atomic.Bool
	var readersWG, writersWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			var lastOps int64
			for !stop.Load() {
				s := d.Stats()
				// Monotonicity: admitted ops never go backwards.
				if s.OpsIn < lastOps {
					t.Errorf("OpsIn went backwards: %d after %d", s.OpsIn, lastOps)
					return
				}
				lastOps = s.OpsIn
				// Every admitted op is exactly one of issued / combined /
				// coalesced / forwarded / upgrading — a torn snapshot
				// breaks the sum.
				if s.RequestsOut+s.CombinedReads+s.CoalescedWrites+s.ForwardedReads+s.UpgradedWrites != s.OpsIn {
					t.Errorf("torn snapshot: %d out + %d combined + %d coalesced + %d forwarded + %d upgraded != %d in",
						s.RequestsOut, s.CombinedReads, s.CoalescedWrites, s.ForwardedReads, s.UpgradedWrites, s.OpsIn)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < opsPerWriter; i++ {
				v := uint64(w*opsPerWriter + i)
				if _, err := access(d, BatchOp{Write: true, Var: v, Val: v}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if i%16 == 0 {
					if _, err := access(d, BatchOp{Var: v}); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
			}
		}(w)
	}
	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.OpsIn < int64(writers*opsPerWriter) {
		t.Fatalf("final OpsIn %d < %d writes issued", s.OpsIn, writers*opsPerWriter)
	}
	if s.RequestsOut+s.CombinedReads+s.CoalescedWrites+s.ForwardedReads+s.UpgradedWrites != s.OpsIn {
		t.Fatalf("final stats identity broken: %+v", s)
	}

	checkFlushCauses(t, s)
}

// checkFlushCauses pins the flush-cause identity: every flushed batch has one
// cause, and ExplicitFlushes also counts Flush sentinels that found nothing
// pending, so Size+Idle ≤ Batches ≤ Size+Idle+Explicit.
func checkFlushCauses(t *testing.T, s frontend.Stats) {
	t.Helper()
	caused := s.SizeFlushes + s.IdleFlushes
	if b := int64(s.Batches); b < caused || b > caused+s.ExplicitFlushes {
		t.Fatalf("%d batches outside [%d, %d] by cause: %+v", b, caused, caused+s.ExplicitFlushes, s)
	}
}

// TestStatsMatchObserver checks the service's two books against each other:
// the dispatchers' Stats, which own the dispatcher facts, and the one
// collector every shard reports its protocol facts to. Under hot-spot reads
// and writes with explicit flushes racing them, every batch a dispatcher
// handed the backend and the backend did not refuse is one batch the
// observer saw, with the same requests and rounds.
func TestStatsMatchObserver(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			col := obs.NewCollector()
			svc := newService(t, 3, Config{
				Shards:   shards,
				maxBatch: 8,
				Protocol: protocol.Config{Observer: col, Recorder: col},
			})
			stop := make(chan struct{})
			flushed := make(chan error, 1)
			go func() {
				for {
					select {
					case <-stop:
						flushed <- nil
						return
					default:
					}
					if err := svc.Flush(); err != nil {
						flushed <- err
						return
					}
				}
			}()
			runShardClients(t, svc, 8, 400, int64(shards))
			close(stop)
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}
			if err := svc.Flush(); err != nil {
				t.Fatal(err)
			}

			st := svc.Stats()
			for _, s := range st.PerShard {
				checkFlushCauses(t, s)
			}
			tot := st.Total
			if tot.CombinedReads+tot.CoalescedWrites+tot.ForwardedReads == 0 || tot.ExplicitFlushes == 0 {
				t.Fatalf("the traffic must combine and meet explicit flushes: %+v", tot)
			}
			if got, want := col.Batches.Load(), int64(tot.Batches-tot.FailedBatches); got != want {
				t.Fatalf("observer saw %d batches, dispatchers handed over %d", got, want)
			}
			if got := col.Requests.Load(); got != tot.RequestsOut {
				t.Fatalf("observer saw %d requests, dispatchers issued %d", got, tot.RequestsOut)
			}
			if got := col.Rounds.Load(); got != tot.TotalRounds {
				t.Fatalf("observer counted %d rounds, Stats.TotalRounds %d", got, tot.TotalRounds)
			}
		})
	}
}
