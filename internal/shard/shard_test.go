package shard

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/frontend"
	"detshmem/internal/protocol"
)

// testMapper builds the q=2 core mapper for degree n.
func testMapper(t testing.TB, n int) protocol.Mapper {
	t.Helper()
	s, err := core.New(1, n)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	return protocol.NewCoreMapper(s, idx)
}

func newService(t testing.TB, n int, cfg Config) *Service {
	t.Helper()
	svc, err := New(testMapper(t, n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

// configs is the shard-count matrix every semantic test runs over; the last
// cell flushes every second distinct variable.
func configs() []Config {
	return []Config{
		{Shards: 1},
		{Shards: 4},
		{Shards: 3, MaxBatch: 2},
	}
}

// name is the cell's subtest id. The "pipelined/" prefix dates from the
// two-dispatcher matrix and stays so the ids the committed test floor lists
// keep naming these cells.
func (c Config) name() string {
	return "pipelined/" + string(rune('0'+c.Shards))
}

// TestRoundTrip: writes then reads at every shard count, including cross-batch visibility and unwritten reads.
func TestRoundTrip(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		t.Run(cfg.name(), func(t *testing.T) {
			svc := newService(t, 3, cfg)
			for v := uint64(0); v < 30; v++ {
				if err := svc.Write(v, v*7+1); err != nil {
					t.Fatal(err)
				}
			}
			for v := uint64(0); v < 30; v++ {
				got, err := svc.Read(v)
				if err != nil {
					t.Fatal(err)
				}
				if got != v*7+1 {
					t.Fatalf("read %d = %d, want %d", v, got, v*7+1)
				}
			}
			if got, err := svc.Read(40); err != nil || got != 0 {
				t.Fatalf("unwritten read = %d, %v", got, err)
			}
			st := svc.Stats()
			if st.Total.OpsIn != 61 {
				t.Fatalf("total ops in = %d, want 61", st.Total.OpsIn)
			}
			if len(st.PerShard) != cfg.Shards && !(cfg.Shards == 0 && len(st.PerShard) == 1) {
				t.Fatalf("per-shard stats = %d entries", len(st.PerShard))
			}
		})
	}
}

// TestAsyncPipelining submits many AccessBatch windows before waiting on
// any, so pipelined shards genuinely overlap admission with flushing, then
// checks every op.
func TestAsyncPipelining(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		t.Run(cfg.name(), func(t *testing.T) {
			svc := newService(t, 3, cfg)
			const ops, window = 400, 20
			var batches []*Batch
			last := map[uint64]uint64{}
			win := make([]BatchOp, 0, window)
			for i := 0; i < ops; i++ {
				v := uint64(i % 17)
				if i%3 == 0 {
					win = append(win, BatchOp{Write: true, Var: v, Val: uint64(i) + 1})
					last[v] = uint64(i) + 1
				} else {
					win = append(win, BatchOp{Var: v})
				}
				if len(win) == window {
					b, err := svc.AccessBatch(win)
					if err != nil {
						t.Fatal(err)
					}
					batches = append(batches, b)
					win = win[:0]
				}
			}
			if err := svc.Flush(); err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				if err := b.Wait(); err != nil {
					t.Fatalf("window %d: %v", i, err)
				}
			}
			// Single submitter: the final read of every variable must see
			// the last write (per-variable linearizability).
			for v, want := range last {
				got, err := svc.Read(v)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("var %d = %d, want %d", v, got, want)
				}
			}
		})
	}
}

// TestCloseSemantics: Close flushes pending work; later submissions and a
// second Close return frontend.ErrClosed.
func TestCloseSemantics(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		t.Run(cfg.name(), func(t *testing.T) {
			svc, err := New(testMapper(t, 3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := svc.AccessBatch([]BatchOp{{Write: true, Var: 3, Val: 33}})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Wait(); err != nil {
				t.Fatalf("pending write not flushed by Close: %v", err)
			}
			if _, err := svc.Read(3); !errors.Is(err, frontend.ErrClosed) {
				t.Fatalf("read after close = %v, want ErrClosed", err)
			}
			if err := svc.Close(); !errors.Is(err, frontend.ErrClosed) {
				t.Fatalf("second close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestTypedErrorsSurface: protocol admission errors keep their identity
// through the sharded path, and a refused op does not wedge the shard.
func TestTypedErrorsSurface(t *testing.T) {
	// The subtest keeps the id the committed test floor lists.
	t.Run("pipelined", func(t *testing.T) {
		svc := newService(t, 3, Config{Shards: 2})
		m := testMapper(t, 3)
		if _, err := svc.Read(m.NumVars() + 5); !errors.Is(err, protocol.ErrVarOutOfRange) {
			t.Fatalf("error = %v, want ErrVarOutOfRange", err)
		}
		// The shard stays usable after the refused op.
		if err := svc.Write(1, 11); err != nil {
			t.Fatal(err)
		}
		if got, err := svc.Read(1); err != nil || got != 11 {
			t.Fatalf("post-failure read = %d, %v", got, err)
		}
	})
}

// TestRouteStability pins the router contract directly: deterministic,
// stable across calls and across Service instances, in range, and
// partition-complete (with enough variables every shard serves some).
func TestRouteStability(t *testing.T) {
	a := newService(t, 3, Config{Shards: 4})
	b := newService(t, 3, Config{Shards: 4})
	seen := make([]int, 4)
	for v := uint64(0); v < 5000; v++ {
		r := a.Route(v)
		if r < 0 || r >= 4 {
			t.Fatalf("route(%d) = %d out of range", v, r)
		}
		if r != a.Route(v) || r != b.Route(v) {
			t.Fatalf("route(%d) unstable", v)
		}
		seen[r]++
	}
	for i, n := range seen {
		if n == 0 {
			t.Fatalf("shard %d serves no variable in [0, 5000)", i)
		}
		// The splitmix mix should spread a contiguous range roughly evenly:
		// each shard within 2× of the fair share.
		if n < 5000/8 || n > 5000/2 {
			t.Fatalf("shard %d load %d badly skewed", i, n)
		}
	}
}

// FuzzRoute fuzzes routing stability and partition membership over
// arbitrary variables and shard counts.
func FuzzRoute(f *testing.F) {
	f.Add(uint64(0), uint8(1))
	f.Add(uint64(12345), uint8(4))
	f.Add(^uint64(0), uint8(7))
	m := testMapper(f, 3)
	services := map[uint8]*Service{}
	f.Fuzz(func(t *testing.T, v uint64, shards uint8) {
		s := int(shards%16) + 1
		svc, ok := services[uint8(s)]
		if !ok {
			var err error
			svc, err = New(m, Config{Shards: s})
			if err != nil {
				t.Fatal(err)
			}
			services[uint8(s)] = svc
		}
		r := svc.Route(v)
		if r < 0 || r >= s {
			t.Fatalf("route(%d) = %d with %d shards", v, r, s)
		}
		if r2 := svc.Route(v); r2 != r {
			t.Fatalf("route(%d) unstable: %d then %d", v, r, r2)
		}
	})
}

// TestSnapshotAndImbalance: per-shard labeled metrics and the imbalance
// ratio behave (Observe on, 2 shards, skewed traffic onto one variable).
func TestSnapshotAndImbalance(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 2, Observe: true})
	hot := uint64(0)
	hotShard := svc.Route(hot)
	for i := 0; i < 50; i++ {
		if err := svc.Write(hot, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Write(1, 1); err != nil { // may or may not share the shard
		t.Fatal(err)
	}
	snap := svc.Snapshot()
	// The histogram drops empty shards (zero observations), so count is the
	// number of shards that served traffic.
	if c := snap["shard_ops_count"]; c < 1 || c > 2 {
		t.Fatalf("shard_ops_count = %d, want 1 or 2", c)
	}
	if snap["shard_ops_sum"] != 51 {
		t.Fatalf("shard_ops_sum = %d, want 51", snap["shard_ops_sum"])
	}
	if svc.Collector(hotShard) == nil {
		t.Fatal("Observe did not attach a collector")
	}
	key := "shard0_batches_total"
	if hotShard == 1 {
		key = "shard1_batches_total"
	}
	if snap[key] == 0 {
		t.Fatalf("hot shard recorded no batches: %v", snap)
	}
	st := svc.Stats()
	if imb := st.Imbalance(); imb < 1 || imb > 2 {
		t.Fatalf("imbalance = %v outside (1, 2]", imb)
	}
	// Without Observe the snapshot still carries the service-level view.
	svc2 := newService(t, 3, Config{Shards: 2})
	if err := svc2.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if snap2 := svc2.Snapshot(); snap2["shard_ops_sum"] != 1 {
		t.Fatalf("unobserved snapshot = %v", snap2)
	}
}

// TestSharedResolver: all shards must share one compiled resolver (the
// point of Config.Resolver); spot-check by writing through one shard and
// confirming the others see independent stores (partitioned, not shared).
func TestSharedResolver(t *testing.T) {
	m := testMapper(t, 3)
	r, err := protocol.CompileMapper(m, protocol.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(r, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Each shard owns a full System over the same mapper; stores are
	// disjoint because the router never sends one variable to two shards.
	v := uint64(5)
	if err := svc.Write(v, 99); err != nil {
		t.Fatal(err)
	}
	// CopyState only reads the store: running a batch on the other shard's
	// System from here would race its dispatcher, which owns it.
	other := 1 - svc.Route(v)
	for c, ts := range svc.System(other).CopyState(v) {
		if ts != 0 {
			t.Fatalf("other shard's store holds copy %d of var %d at timestamp %d; partition leaked", c, v, ts)
		}
	}
}

// TestResolverStrategies runs the sharded service table-free (computed):
// round-trips must match the compiled default, and no shard may hold a
// table.
func TestResolverStrategies(t *testing.T) {
	t.Run(protocol.ResolverComputed.String(), func(t *testing.T) {
		svc := newService(t, 3, Config{
			Shards:   3,
			Observe:  true,
			Protocol: protocol.Config{Strategy: protocol.ResolverComputed},
		})
		for v := uint64(0); v < 40; v++ {
			if err := svc.Write(v, v*13+3); err != nil {
				t.Fatal(err)
			}
		}
		for v := uint64(0); v < 40; v++ {
			got, err := svc.Read(v)
			if err != nil {
				t.Fatal(err)
			}
			if got != v*13+3 {
				t.Fatalf("read %d = %d, want %d", v, got, v*13+3)
			}
		}
		if got := tableBytes(t, svc); got != 0 {
			t.Fatalf("computed shards report a %d-byte table", got)
		}
	})
}

// tableBytes returns the resident table bytes every shard of an observed
// service reports, failing if they disagree.
func tableBytes(t *testing.T, svc *Service) int64 {
	t.Helper()
	snap := svc.Snapshot()
	first := snap["shard0_resolver_resident_bytes"]
	for i := 1; i < svc.Shards(); i++ {
		if got := snap[fmt.Sprintf("shard%d_resolver_resident_bytes", i)]; got != first {
			t.Fatalf("shard %d reports %d resident table bytes, shard 0 reports %d", i, got, first)
		}
	}
	return first
}

// TestResolverSelectedBySize: under the zero-value strategy the mapper's size
// alone picks the resolver (protocol.TableFits). At q=2 n=5 every shard
// reports the one shared table; at q=2 n=9 — 67 M entries — no shard holds
// one. The n=9 service issues no access (building it takes seconds as it is).
func TestResolverSelectedBySize(t *testing.T) {
	small := testMapper(t, 5)
	if !protocol.TableFits(small) {
		t.Fatal("q=2 n=5 must sit on the table side of the size rule")
	}
	svc, err := New(small, Config{Shards: 3, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got, want := tableBytes(t, svc), int64(small.NumVars())*int64(small.Copies())*8; got != want {
		t.Fatalf("n=5 shards report %d resident table bytes, want the whole table's %d", got, want)
	}

	if testing.Short() {
		t.Skip("building the q=2 n=9 scheme takes seconds")
	}
	s, err := core.New(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	large := protocol.NewCoreMapper(s, core.NewCompactIndexer(s))
	if protocol.TableFits(large) {
		t.Fatal("q=2 n=9 must sit on the computed side of the size rule")
	}
	big, err := New(large, Config{Shards: 3, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if got := tableBytes(t, big); got != 0 {
		t.Fatalf("n=9 shards report a %d-byte table, want none", got)
	}
}

// TestMaxBatchBoundedByModules: a flush threshold above N used to be
// accepted and then failed every op of an over-full batch at run time
// (protocol: batch of 126 exceeds N = 63); it is a construction error now.
func TestMaxBatchBoundedByModules(t *testing.T) {
	m := testMapper(t, 3)
	n := int(m.NumModules())
	_, err := New(m, Config{MaxBatch: 4 * n})
	if err == nil {
		t.Fatalf("MaxBatch %d accepted over %d modules", 4*n, n)
	}
	for _, num := range []int{4 * n, n} {
		if !strings.Contains(err.Error(), strconv.Itoa(num)) {
			t.Errorf("error %q does not name %d", err, num)
		}
	}
	svc := newService(t, 3, Config{MaxBatch: n})
	ops := make([]BatchOp, m.NumVars()) // 84 distinct variables: more than one batch of N = 63
	for i := range ops {
		ops[i] = BatchOp{Write: true, Var: uint64(i), Val: uint64(i) + 1}
	}
	b, err := svc.AccessBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Errorf("%d distinct writes at MaxBatch = N: %v", len(ops), err)
	}
}

// TestExplicitFlushWaits: Flush must not return
// until every batch sealed so far committed. Stats are accounted before
// futures complete (read-your-ops), so after Flush every submitted op must
// already be visible in the snapshot.
func TestExplicitFlushWaits(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 2})
	var batches []*Batch
	for lo := 0; lo < 200; lo += 10 {
		win := make([]BatchOp, 10)
		for i := range win {
			win[i] = BatchOp{Write: true, Var: uint64((lo + i) % 9), Val: uint64(lo + i)}
		}
		b, err := svc.AccessBatch(win)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Total.OpsIn != 200 {
		t.Fatalf("after Flush, %d ops accounted, want 200", st.Total.OpsIn)
	}
	if st.Total.ExplicitFlushes == 0 {
		t.Fatal("no explicit flush recorded")
	}
	for i, b := range batches {
		if err := b.Wait(); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
}

// TestBackpressure: a tiny MaxBatch on the smallest derived ring (64 slots)
// still completes a hammering workload (submitters block rather than fail or
// deadlock). TestTinyRingBackpressure wraps a 2-slot ring.
func TestBackpressure(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 2, MaxBatch: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); i < 60; i++ {
				if err := svc.Write(c, c<<8|i); err != nil {
					errs <- err
					return
				}
				if _, err := svc.Read(c); err != nil {
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
}
