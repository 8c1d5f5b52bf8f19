package frontend

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/protocol"
)

// fakeBackend applies batches to a plain map and records them. When gated,
// every Access call announces itself on entered and then blocks until the
// test calls step, letting tests hold the dispatcher inside a flush while
// they stage the submission queue — the only way to pin down which ops land
// in which batch.
type fakeBackend struct {
	mu      sync.Mutex
	batches [][]protocol.Request
	store   map[uint64]uint64
	entered chan struct{}
	gate    chan struct{}
	err     error // forced failure for every batch
}

func newFakeBackend(gated bool) *fakeBackend {
	b := &fakeBackend{store: make(map[uint64]uint64)}
	if gated {
		b.entered = make(chan struct{})
		b.gate = make(chan struct{})
	}
	return b
}

// step waits for the dispatcher to enter its next Access call and releases
// it.
func (b *fakeBackend) step() {
	<-b.entered
	b.gate <- struct{}{}
}

func (b *fakeBackend) Access(reqs []protocol.Request) (*protocol.Result, error) {
	if b.gate != nil {
		b.entered <- struct{}{}
		<-b.gate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil, b.err
	}
	b.batches = append(b.batches, append([]protocol.Request(nil), reqs...))
	res := &protocol.Result{Values: make([]uint64, len(reqs))}
	for i, r := range reqs {
		if r.Op == protocol.Write {
			b.store[r.Var] = r.Value
		} else {
			res.Values[i] = b.store[r.Var]
		}
	}
	return res, nil
}

func (b *fakeBackend) recorded() [][]protocol.Request {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches
}

// prime submits one throwaway write and waits for the dispatcher to enter
// its (idle-triggered) flush, so every op staged afterwards sits in the
// queue until the primer batch is released and is then admitted in one
// uninterrupted run.
func prime(t *testing.T, fe *Frontend, b *fakeBackend) *Future {
	t.Helper()
	fut, err := fe.WriteAsync(1<<40, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-b.entered
	return fut
}

// TestCombiningSemantics drives the full coalescing matrix deterministically:
// forwarding, last-writer-wins, read combining, and the write-after-read
// conflict flush.
func TestCombiningSemantics(t *testing.T) {
	b := newFakeBackend(true)
	fe, err := New(b, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	primer := prime(t, fe, b)

	// Staged while the dispatcher is stuck in the primer's flush.
	w1, _ := fe.WriteAsync(1, 10)
	r1, _ := fe.ReadAsync(1) // forwarded: 10
	w2, _ := fe.WriteAsync(1, 20)
	r2, _ := fe.ReadAsync(1)     // forwarded: 20
	r3, _ := fe.ReadAsync(2)     // issued read
	r4, _ := fe.ReadAsync(2)     // combined with r3
	w3, _ := fe.WriteAsync(2, 5) // conflicts with the issued read: flush

	b.gate <- struct{}{} // release the primer batch (already entered)
	b.step()             // the conflict-flushed combined batch
	b.step()             // w3's own (idle-flushed) batch
	if err := fe.Flush(); err != nil {
		t.Fatal(err)
	}

	if _, err := primer.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		fut  *Future
		want uint64
	}{{w1, 0}, {r1, 10}, {w2, 0}, {r2, 20}, {r3, 0}, {r4, 0}, {w3, 0}} {
		got, err := tc.fut.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != tc.want {
			t.Fatalf("op %d: got %d, want %d", i, got, tc.want)
		}
	}

	batches := b.recorded()
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3: %v", len(batches), batches)
	}
	combined := batches[1]
	want := []protocol.Request{
		{Var: 1, Op: protocol.Write, Value: 20},
		{Var: 2, Op: protocol.Read},
	}
	if len(combined) != len(want) {
		t.Fatalf("combined batch %v, want %v", combined, want)
	}
	for i := range want {
		if combined[i] != want[i] {
			t.Fatalf("combined[%d] = %v, want %v", i, combined[i], want[i])
		}
	}
	if got := batches[2]; len(got) != 1 || got[0] != (protocol.Request{Var: 2, Op: protocol.Write, Value: 5}) {
		t.Fatalf("post-conflict batch = %v", got)
	}

	s := fe.Stats()
	if s.ForwardedReads != 2 || s.CombinedReads != 1 || s.CoalescedWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ConflictFlushes != 1 {
		t.Fatalf("conflict flushes = %d", s.ConflictFlushes)
	}
	// 7 staged ops + primer in, 4 requests out (primer, write 1, read 2, write 2).
	if s.OpsIn != 8 || s.RequestsOut != 4 {
		t.Fatalf("ops in/out = %d/%d", s.OpsIn, s.RequestsOut)
	}
	if s.CombiningRate() != 0.5 {
		t.Fatalf("combining rate = %v", s.CombiningRate())
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSizeFlush checks the MaxBatch threshold splits a staged run of
// distinct variables into full batches.
func TestSizeFlush(t *testing.T) {
	b := newFakeBackend(true)
	fe, err := New(b, Config{MaxBatch: 4, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	prime(t, fe, b)
	futs := make([]*Future, 8)
	for i := range futs {
		futs[i], err = fe.WriteAsync(uint64(i), uint64(i)+100)
		if err != nil {
			t.Fatal(err)
		}
	}
	b.gate <- struct{}{} // release the primer batch (already entered)
	b.step()             // first full batch of 4
	b.step()             // second full batch of 4
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []int{}
	for _, batch := range b.recorded() {
		sizes = append(sizes, len(batch))
	}
	if fmt.Sprint(sizes) != "[1 4 4]" {
		t.Fatalf("batch sizes = %v, want [1 4 4]", sizes)
	}
	if s := fe.Stats(); s.SizeFlushes != 2 {
		t.Fatalf("size flushes = %d", s.SizeFlushes)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendErrorFansOut: a failing backend fails every waiter in the
// batch with the backend's error.
func TestBackendErrorFansOut(t *testing.T) {
	b := newFakeBackend(false)
	boom := errors.New("boom")
	b.err = boom
	fe, err := New(b, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Read(7); !errors.Is(err, boom) {
		t.Fatalf("read error = %v, want boom", err)
	}
	if err := fe.Write(7, 1); !errors.Is(err, boom) {
		t.Fatalf("write error = %v, want boom", err)
	}
	if s := fe.Stats(); s.FailedBatches != 2 {
		t.Fatalf("failed batches = %d", s.FailedBatches)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTypedErrorsSurface: protocol admission errors keep their errors.Is
// identity through the frontend.
func TestTypedErrorsSurface(t *testing.T) {
	sys := newPP93System(t, 1, 3, protocol.Config{})
	fe, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Read(sys.Mapper.NumVars() + 5); !errors.Is(err, protocol.ErrVarOutOfRange) {
		t.Fatalf("error = %v, want ErrVarOutOfRange", err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseSemantics: Close flushes pending work, later submissions and a
// second Close return ErrClosed.
func TestCloseSemantics(t *testing.T) {
	b := newFakeBackend(false)
	fe, err := New(b, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := fe.WriteAsync(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("pending write not flushed by Close: %v", err)
	}
	if _, err := fe.Read(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close = %v, want ErrClosed", err)
	}
	if err := fe.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close = %v, want ErrClosed", err)
	}
}

// TestRealSystemRoundTrip: basic write-then-read through a real PP93 system,
// including cross-batch visibility.
func TestRealSystemRoundTrip(t *testing.T) {
	sys := newPP93System(t, 1, 3, protocol.Config{})
	fe, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	for v := uint64(0); v < 20; v++ {
		if err := fe.Write(v, v*3+1); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(0); v < 20; v++ {
		got, err := fe.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if got != v*3+1 {
			t.Fatalf("read %d = %d, want %d", v, got, v*3+1)
		}
	}
	if got, err := fe.Read(25); err != nil || got != 0 {
		t.Fatalf("unwritten read = %d, %v", got, err)
	}
	s := fe.Stats()
	if s.OpsIn != 41 || s.Batches == 0 || s.TotalRounds == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMaxBatchBoundedByModules: over a protocol.System a flush threshold
// above N is a construction error naming both numbers (it used to fail every
// op of an over-full batch at run time); a backend of another type sets its
// own limit.
func TestMaxBatchBoundedByModules(t *testing.T) {
	sys := newPP93System(t, 1, 3, protocol.Config{}) // N = 63
	_, err := New(sys, Config{MaxBatch: 64})
	if err == nil || !strings.Contains(err.Error(), "64") || !strings.Contains(err.Error(), "63") {
		t.Fatalf("MaxBatch 64 over 63 modules: error %v, want one naming both", err)
	}
	for _, b := range []Backend{sys, newFakeBackend(false)} {
		fe, err := New(b, Config{MaxBatch: 63})
		if err != nil {
			t.Fatalf("%T: MaxBatch 63 rejected: %v", b, err)
		}
		fe.Close()
	}
	fe, err := New(newFakeBackend(false), Config{MaxBatch: 64})
	if err != nil {
		t.Fatalf("fake backend: MaxBatch 64 rejected: %v", err)
	}
	fe.Close()
}

// TestTinyQueueBackpressure: a QueueCap of 1 still completes a concurrent
// workload (submitters block instead of failing).
func TestTinyQueueBackpressure(t *testing.T) {
	sys := newPP93System(t, 1, 3, protocol.Config{})
	fe, err := New(sys, Config{MaxBatch: 8, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); i < 50; i++ {
				if err := fe.Write(c, c<<8|i); err != nil {
					errs <- err
					return
				}
				if _, err := fe.Read(c); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := fe.Stats(); s.MaxQueueDepth > 1 {
		t.Fatalf("queue depth %d exceeded capacity", s.MaxQueueDepth)
	}
}

// newPP93System builds a fresh PP93 protocol system for q=2^m, degree n.
func newPP93System(t testing.TB, m, n int, cfg protocol.Config) *protocol.System {
	t.Helper()
	s, err := core.New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := protocol.NewSystem(s, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
