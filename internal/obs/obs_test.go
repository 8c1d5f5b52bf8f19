package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestLoadHistEmptyBatch pins the empty-round edge: nothing observed, all
// buckets zero, zero modules.
func TestLoadHistEmptyBatch(t *testing.T) {
	var h LoadHist
	if h.Modules() != 0 {
		t.Fatalf("empty hist reports %d modules, want 0", h.Modules())
	}
	h.Observe(0)
	h.Observe(-3)
	if h.Modules() != 0 {
		t.Fatalf("non-positive loads were counted: %v", h)
	}
}

// TestLoadHistSingleModule pins the single-module edge: one module at load
// k lands in exactly the bucket [2^b, 2^{b+1}) containing k.
func TestLoadHistSingleModule(t *testing.T) {
	for _, tc := range []struct {
		load   int
		bucket int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1 << 14, 14}, {1 << 15, 15}, {1 << 20, 15}, // clamp into the last bucket
	} {
		var h LoadHist
		h.Observe(tc.load)
		if h.Modules() != 1 {
			t.Fatalf("load %d: %d modules, want 1", tc.load, h.Modules())
		}
		for b, n := range h {
			want := uint32(0)
			if b == tc.bucket {
				want = 1
			}
			if n != want {
				t.Fatalf("load %d: bucket %d = %d, want %d (hist %v)", tc.load, b, n, want, h)
			}
		}
	}
}

// TestLoadHistUniform pins the N-module uniform edge: N modules at load 1
// all land in bucket 0 and Modules() returns N.
func TestLoadHistUniform(t *testing.T) {
	const n = 1023
	var h LoadHist
	for i := 0; i < n; i++ {
		h.Observe(1)
	}
	if h[0] != n || h.Modules() != n {
		t.Fatalf("uniform hist: bucket0=%d modules=%d, want %d", h[0], h.Modules(), n)
	}
}

func TestHistogramObserveAndBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)  // ignored
	h.Observe(-1) // ignored
	vals := []int64{1, 1, 2, 3, 5, 8, 1 << 30}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != int64(len(vals)) || h.Sum() != sum {
		t.Fatalf("count=%d sum=%d, want %d/%d", h.Count(), h.Sum(), len(vals), sum)
	}
	b := h.Buckets()
	if b[0] != 2 || b[1] != 2 || b[2] != 1 || b[3] != 1 || b[HistBuckets-1] != 1 {
		t.Fatalf("bucket layout wrong: %v", b)
	}
}

func TestHistogramAddBucket(t *testing.T) {
	var h Histogram
	h.AddBucket(2, 5)             // 5 values at lower bound 4
	h.AddBucket(HistBuckets+3, 1) // clamps to last bucket
	h.AddBucket(0, -2)            // ignored
	h.AddBucket(-1, 3)            // ignored
	if h.Count() != 6 || h.Sum() != 5*4+1<<(HistBuckets-1) {
		t.Fatalf("count=%d sum=%d after merges", h.Count(), h.Sum())
	}
}

func TestMaxGaugeConcurrent(t *testing.T) {
	var g MaxGauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if g.Load() != 7999 {
		t.Fatalf("max gauge %d, want 7999", g.Load())
	}
}

func TestTracerRingAndTotals(t *testing.T) {
	tr := NewTracer(4)
	if !tr.Enabled() {
		t.Fatal("tracer must be enabled")
	}
	for i := 0; i < 10; i++ {
		tr.RecordRound(RoundEvent{Round: uint64(i), Requests: 2, Granted: 1, MaxLoad: i + 1})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Round != uint64(6+i) {
			t.Fatalf("event %d is round %d, want %d (oldest-first tail)", i, ev.Round, 6+i)
		}
	}
	tot := tr.Totals()
	if tot.Rounds != 10 || tot.Requests != 20 || tot.Granted != 10 || tot.MaxLoad != 10 {
		t.Fatalf("totals survive wrap-around: %+v", tot)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerWriteJSONRoundTrips(t *testing.T) {
	tr := NewTracer(8)
	ev := RoundEvent{Round: 3, Requests: 5, Granted: 2, MaxLoad: 3}
	ev.Contention.Observe(3)
	ev.Contention.Observe(1)
	tr.RecordRound(ev)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump TraceDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v\n%s", err, buf.String())
	}
	if dump.Totals.Rounds != 1 || len(dump.Events) != 1 || dump.Events[0] != ev {
		t.Fatalf("dump mismatch: %+v", dump)
	}
}

func TestMultiRecorder(t *testing.T) {
	if Multi() != Nop || Multi(nil, Nop) != Nop {
		t.Fatal("empty Multi must collapse to Nop")
	}
	a, b := NewTracer(4), NewTracer(4)
	if Multi(a, nil) != Recorder(a) {
		t.Fatal("single live recorder must be returned unwrapped")
	}
	m := Multi(a, b)
	if !m.Enabled() {
		t.Fatal("multi of enabled recorders must be enabled")
	}
	m.RecordRound(RoundEvent{Requests: 1, Granted: 1})
	if a.Totals().Rounds != 1 || b.Totals().Rounds != 1 {
		t.Fatal("multi did not fan out")
	}
	if Nop.Enabled() {
		t.Fatal("Nop must be disabled")
	}
}

func TestMultiBatch(t *testing.T) {
	if MultiBatch() != nil || MultiBatch(nil, nil) != nil {
		t.Fatal("empty MultiBatch must be nil")
	}
	a, b := NewCollector(), NewCollector()
	if MultiBatch(a, nil) != BatchObserver(a) {
		t.Fatal("single live observer must be returned unwrapped")
	}
	MultiBatch(a, b).ObserveBatch(BatchEvent{Requests: 3, Rounds: 2})
	if a.Batches.Load() != 1 || b.Batches.Load() != 1 || a.Rounds.Load() != 2 {
		t.Fatal("batch fan-out failed")
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector()
	if !c.Enabled() {
		t.Fatal("collector must be enabled")
	}
	ev := RoundEvent{Requests: 10, Granted: 4, MaxLoad: 5}
	ev.Contention.Observe(5)
	ev.Contention.Observe(2)
	ev.Contention.Observe(1)
	ev.Contention.Observe(1)
	c.RecordRound(ev)
	c.RecordRound(RoundEvent{Requests: 1, Granted: 1, MaxLoad: 1})
	if c.MPCRounds.Load() != 2 || c.MPCRequests.Load() != 11 || c.MPCGranted.Load() != 5 {
		t.Fatalf("round counters wrong: rounds=%d req=%d granted=%d",
			c.MPCRounds.Load(), c.MPCRequests.Load(), c.MPCGranted.Load())
	}
	if c.MaxModuleLoad.Load() != 5 {
		t.Fatalf("max load %d", c.MaxModuleLoad.Load())
	}
	if c.ModuleLoad.Count() != 4 {
		t.Fatalf("module-load hist merged %d modules, want 4", c.ModuleLoad.Count())
	}

	c.ObserveBatch(BatchEvent{Requests: 100, Phases: 3, Rounds: 12, MaxPhi: 5, CopyAccesses: 200, GrantedBids: 250, Unfinished: 1})
	if c.Batches.Load() != 1 || c.Rounds.Load() != 12 || c.MaxPhi.Load() != 5 ||
		c.CopyAccesses.Load() != 200 || c.GrantedBids.Load() != 250 || c.Unfinished.Load() != 1 {
		t.Fatalf("batch counters wrong: %+v", c.Snapshot())
	}
}

// TestRecordRoundNoAlloc pins the enabled tracing path itself at zero
// steady-state allocations: the ring and the collector's atomics never
// allocate per event (the engine's own no-op guarantee is pinned in
// internal/mpc and internal/protocol).
func TestRecordRoundNoAlloc(t *testing.T) {
	tr := NewTracer(64)
	c := NewCollector()
	m := Multi(tr, c)
	ev := RoundEvent{Requests: 8, Granted: 4, MaxLoad: 2}
	ev.Contention.Observe(2)
	if avg := testing.AllocsPerRun(200, func() {
		m.RecordRound(ev)
		c.ObserveBatch(BatchEvent{Requests: 8, Rounds: 1, GrantedBids: 4})
	}); avg != 0 {
		t.Fatalf("RecordRound/ObserveBatch allocate %.2f per event, want 0", avg)
	}
}
