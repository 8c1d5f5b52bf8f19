package shard

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"detshmem/internal/affine"
	"detshmem/internal/baseline"
	"detshmem/internal/cellstore"
	"detshmem/internal/core"
	"detshmem/internal/frontend"
	"detshmem/internal/obs"
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
		{Shards: 3, maxBatch: 2},
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
		// An id with the top bit set, where an admitted op keeps its write
		// flag, is refused too, never taken for variable 1.
		for _, v := range []uint64{1<<63 | 1, math.MaxUint64} {
			if err := svc.Write(v, 99); !errors.Is(err, protocol.ErrVarOutOfRange) {
				t.Fatalf("write of variable %d: %v, want ErrVarOutOfRange", v, err)
			}
			if _, err := svc.Read(v); !errors.Is(err, protocol.ErrVarOutOfRange) {
				t.Fatalf("read of variable %d: %v, want ErrVarOutOfRange", v, err)
			}
		}
		if got, err := svc.Read(1); err != nil || got != 0 {
			t.Fatalf("variable 1 reads %d, %v after refused ops, want 0", got, err)
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

// TestSnapshotAndImbalance: the per-shard stats and the imbalance ratio
// behave, and the shards' one observer saw every batch they flushed (2
// shards, skewed traffic onto one variable).
func TestSnapshotAndImbalance(t *testing.T) {
	col := obs.NewCollector()
	svc := newService(t, 3, Config{Shards: 2, Protocol: protocol.Config{Observer: col}})
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
	st := svc.Stats()
	if st.Total.OpsIn != 51 {
		t.Fatalf("ops in = %d, want 51", st.Total.OpsIn)
	}
	if st.PerShard[hotShard].Batches == 0 {
		t.Fatalf("hot shard recorded no batches: %+v", st.PerShard)
	}
	if got := col.Batches.Load(); got != int64(st.Total.Batches) {
		t.Fatalf("observer saw %d batches, the shards flushed %d", got, st.Total.Batches)
	}
	if imb := st.Imbalance(); imb < 1 || imb > 2 {
		t.Fatalf("imbalance = %v outside (1, 2]", imb)
	}
}

// TestSharedResolver: all shards must share one compiled resolver (the
// point of Config.Resolver) and one cell store; spot-check by writing through
// one shard and confirming the other served nothing — the router never sends
// one variable to two shards — while both Systems read the written copies
// from the same store.
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
	v := uint64(5)
	if err := svc.Write(v, 99); err != nil {
		t.Fatal(err)
	}
	owner := svc.Route(v)
	other := 1 - owner
	if st := svc.Stats().PerShard; st[other].Batches != 0 || st[owner].Batches == 0 {
		t.Fatalf("shard %d owns var %d, yet the shards served %d and %d batches", owner, v, st[0].Batches, st[1].Batches)
	}
	if svc.System(0).Cells() != svc.System(1).Cells() {
		t.Fatal("the two shards keep their cells in different stores")
	}
	// CopyState only reads the store: running a batch on the other shard's
	// System from here would race its dispatcher, which owns it.
	written := 0
	for _, ts := range svc.System(other).CopyState(v) {
		if ts != 0 {
			written++
		}
	}
	if written < r.WriteQuorum() {
		t.Fatalf("the other shard's System sees %d written copies of var %d, want a write quorum of %d", written, v, r.WriteQuorum())
	}
}

// TestShardsShareOneStore: a service holds the module memory once, whatever
// S. S=1 and S=4 services take the same write stream and must end with the
// same number of allocated pages summed over the distinct stores of their
// shards — with a store per shard, S=4 holds about four times as many, since
// every shard's variables have copies in every page.
func TestShardsShareOneStore(t *testing.T) {
	pages := func(shards int) int {
		svc := newService(t, 5, Config{Shards: shards})
		nv := svc.System(0).Mapper.NumVars()
		ops := make([]BatchOp, 0, 64)
		for v := range nv {
			ops = append(ops, BatchOp{Write: true, Var: v, Val: v + 1})
			if len(ops) == cap(ops) || v+1 == nv {
				b, err := svc.AccessBatch(ops)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Wait(); err != nil {
					t.Fatal(err)
				}
				ops = ops[:0]
			}
		}
		stores := map[*cellstore.Store]bool{}
		n := 0
		for i := range shards {
			if st := svc.System(i).Cells(); !stores[st] {
				stores[st] = true
				n += st.Pages()
			}
		}
		return n
	}
	one, four := pages(1), pages(4)
	if one == 0 || four != one {
		t.Fatalf("the write stream left %d pages at S=1 and %d at S=4, want the same", one, four)
	}
}

// TestResolverStrategies runs the sharded service table-free (computed):
// round-trips must match the compiled default, and no shard may hold a
// table.
func TestResolverStrategies(t *testing.T) {
	t.Run(protocol.ResolverComputed.String(), func(t *testing.T) {
		res := new(residency)
		svc := newService(t, 3, Config{
			Shards:   3,
			Protocol: protocol.Config{Strategy: protocol.ResolverComputed, Observer: res},
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
		if got := res.tableBytes(t, svc.Shards()); got != 0 {
			t.Fatalf("computed shards report a %d-byte table", got)
		}
	})
}

// residency is a protocol observer that keeps every resolver-residency
// report: each System built over a table makes one, at construction.
type residency struct {
	mu      sync.Mutex
	reports []uint64
}

func (*residency) ObserveBatch(obs.BatchEvent) {}

func (r *residency) ObserveResolverResidency(bytes uint64) {
	r.mu.Lock()
	r.reports = append(r.reports, bytes)
	r.mu.Unlock()
}

// tableBytes returns the resident table bytes every one of the shards
// reported, 0 when none holds a table, failing unless all of them or none
// reported, and all the same figure.
func (r *residency) tableBytes(t *testing.T, shards int) uint64 {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.reports) == 0 {
		return 0
	}
	if len(r.reports) != shards {
		t.Fatalf("%d of %d shards report a table: %v", len(r.reports), shards, r.reports)
	}
	for i, b := range r.reports {
		if b != r.reports[0] {
			t.Fatalf("report %d names %d resident table bytes, report 0 names %d", i, b, r.reports[0])
		}
	}
	return r.reports[0]
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
	res := new(residency)
	svc, err := New(small, Config{Shards: 3, Protocol: protocol.Config{Observer: res}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got, want := res.tableBytes(t, 3), small.NumVars()*uint64(small.Copies())*4; got != want {
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
	bigRes := new(residency)
	big, err := New(large, Config{Shards: 3, Protocol: protocol.Config{Observer: bigRes}})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if got := bigRes.tableBytes(t, 3); got != 0 {
		t.Fatalf("n=9 shards report a %d-byte table, want none", got)
	}
}

// TestBaselinesResolveLive: only the PP93 mapper has a compiled table, so
// protocol.TableFits and protocol.CompileMapper refuse every baseline of the
// protocol package's mapper matrix — CompileMapper with an error that names
// the mapper — and a service over Mehlhorn–Vishkin holds no table: its
// shards resolve live and serve reads and writes.
func TestBaselinesResolveLive(t *testing.T) {
	var baselines []protocol.Mapper
	add := func(m protocol.Mapper, err error) {
		if err != nil {
			t.Fatal(err)
		}
		baselines = append(baselines, m)
	}
	add(baseline.NewMV(64, 4096, 2))
	add(baseline.NewSingleCopy(64, 4096, baseline.PlaceInterleaved, 0))
	add(baseline.NewSingleCopy(64, 4096, baseline.PlaceHashed, 12345))
	add(baseline.NewUW(64, 4096, 3, 999))
	add(affine.New(61, 3))
	for _, m := range baselines {
		if protocol.TableFits(m) {
			t.Errorf("%s: TableFits says a baseline's table fits", m.Name())
		}
		if _, err := protocol.CompileMapper(m, protocol.CompileOptions{}); err == nil || !strings.Contains(err.Error(), m.Name()) {
			t.Errorf("%s: CompileMapper error %v, want a refusal naming the mapper", m.Name(), err)
		}
	}

	res := new(residency)
	svc, err := New(baselines[0], Config{Shards: 2, Protocol: protocol.Config{Observer: res}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := res.tableBytes(t, 2); got != 0 {
		t.Fatalf("mv shards report a %d-byte table, want none", got)
	}
	for v := uint64(0); v < 64; v++ {
		if err := svc.Write(v*61, v+1); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(0); v < 64; v++ {
		if got, err := svc.Read(v * 61); err != nil || got != v+1 {
			t.Fatalf("read var %d = %d, %v; want %d", v*61, got, err, v+1)
		}
	}
}

// TestMaxBatchBoundedByModules: a flush threshold above N used to be
// accepted and then failed every op of an over-full batch at run time
// (protocol: batch of 126 exceeds N = 63); it is a construction error now.
func TestMaxBatchBoundedByModules(t *testing.T) {
	m := testMapper(t, 3)
	n := int(m.NumModules())
	_, err := New(m, Config{maxBatch: 4 * n})
	if err == nil {
		t.Fatalf("maxBatch %d accepted over %d modules", 4*n, n)
	}
	for _, num := range []int{4 * n, n} {
		if !strings.Contains(err.Error(), strconv.Itoa(num)) {
			t.Errorf("error %q does not name %d", err, num)
		}
	}
	svc := newService(t, 3, Config{maxBatch: n})
	ops := make([]BatchOp, m.NumVars()) // 84 distinct variables: more than one batch of N = 63
	for i := range ops {
		ops[i] = BatchOp{Write: true, Var: uint64(i), Val: uint64(i) + 1}
	}
	b, err := svc.AccessBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Errorf("%d distinct writes at maxBatch = N: %v", len(ops), err)
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

// TestBackpressure: a tiny maxBatch on the smallest derived ring (64 slots)
// still completes a hammering workload (submitters block rather than fail or
// deadlock). TestTinyRingBackpressure wraps a 2-slot ring.
func TestBackpressure(t *testing.T) {
	svc := newService(t, 3, Config{Shards: 2, maxBatch: 2})
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
