package shard

import (
	"sort"
	"sync"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// The sharded differential oracle. The service promises per-variable
// linearizability with a per-shard commit order: every operation's
// Batch.Seq orders it within its variable's shard, and there is no
// cross-shard order. So the oracle groups committed operations by
// Route(v), sorts each shard's group by sequence number, replays each
// group independently against a plain map, and demands identical read
// values. Any lost write, reordering within a shard, or cross-shard
// routing leak (two shards serving one variable) fails the replay.

type record struct {
	v     uint64
	val   uint64
	write bool
	seq   uint64
	got   uint64
}

// runShardClients hammers the service from `clients` goroutines with
// AccessBatch windows of hot-spot traffic (40% writes over a small hot set so
// combining, coalescing, read-write upgrades and cross-shard interleaving all
// trigger), then collects each op's committed sequence number and value.
func runShardClients(t *testing.T, svc *Service, clients, opsPer int, seed int64) []record {
	t.Helper()
	const window = 32
	var mu sync.Mutex
	var all []record
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.ClientRNG(seed, c)
			stream := workload.HotSpot(rng, 64, opsPer, 8, 0.7)
			recs := make([]record, 0, opsPer)
			win := make([]BatchOp, 0, window)
			drain := func() bool {
				b, err := svc.AccessBatch(win)
				if err != nil {
					errs <- err
					return false
				}
				for i := range win {
					k := len(recs) - len(win) + i
					if recs[k].got, err = b.Value(i); err != nil {
						errs <- err
						return false
					}
					recs[k].seq = b.Seq(i)
				}
				win = win[:0]
				return true
			}
			for i, v := range stream {
				if rng.Intn(100) < 40 {
					val := uint64(c+1)<<32 | uint64(i)
					recs = append(recs, record{v: v, val: val, write: true})
					win = append(win, BatchOp{Write: true, Var: v, Val: val})
				} else {
					recs = append(recs, record{v: v})
					win = append(win, BatchOp{Var: v})
				}
				if len(win) == window && !drain() {
					return
				}
			}
			if !drain() {
				return
			}
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return all
}

// checkShardOracle replays each shard's commit sequence independently.
func checkShardOracle(t *testing.T, svc *Service, recs []record) {
	t.Helper()
	groups := make([][]record, svc.Shards())
	for _, r := range recs {
		s := svc.Route(r.v)
		groups[s] = append(groups[s], r)
	}
	for s, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i].seq < g[j].seq })
		store := map[uint64]uint64{}
		for i, r := range g {
			if i > 0 && g[i-1].seq == r.seq {
				t.Fatalf("shard %d: duplicate sequence %d", s, r.seq)
			}
			if r.write {
				store[r.v] = r.val
				continue
			}
			if want := store[r.v]; r.got != want {
				t.Fatalf("shard %d seq %d: read var %d = %d, replay says %d",
					s, r.seq, r.v, r.got, want)
			}
		}
	}
}

// otherMappers are the memory organizations besides PP93 q=2: at S=1 the
// oracle runs over each, so combining is shown invisible to clients whatever
// protocol.Mapper sits under the dispatcher.
var otherMappers = []struct {
	name  string
	build func() (protocol.Mapper, error)
}{
	{"pp93-q4", func() (protocol.Mapper, error) {
		s, err := core.New(2, 3)
		if err != nil {
			return nil, err
		}
		idx, err := s.NewIndexer()
		if err != nil {
			return nil, err
		}
		return protocol.NewCoreMapper(s, idx), nil
	}},
	{"mv-c2", func() (protocol.Mapper, error) { return baseline.NewMV(64, 4096, 2) }},
	{"single", func() (protocol.Mapper, error) {
		return baseline.NewSingleCopy(64, 4096, baseline.PlaceInterleaved, 0)
	}},
	{"uw-c2", func() (protocol.Mapper, error) { return baseline.NewUW(64, 4096, 2, 7) }},
}

// TestDifferentialOracle is the matrix: shard counts × client counts over
// PP93 q=2 n=5, plus the S=1 cell over every other mapper; ≥1e5 ops at full
// scale (-short shrinks it for the race detector, which runs this very test
// in CI).
func TestDifferentialOracle(t *testing.T) {
	opsPer := 2000
	clientCounts := []int{1, 8, 64}
	if testing.Short() {
		opsPer = 300
		clientCounts = []int{1, 8}
	}
	type cell struct {
		name   string
		cfg    Config
		mapper func(t testing.TB) protocol.Mapper
	}
	pp93 := func(t testing.TB) protocol.Mapper { return testMapper(t, 5) }
	var cells []cell
	for _, cfg := range []Config{
		{Shards: 1},
		{Shards: 4},
		{Shards: 4, maxBatch: 3},
		{Shards: 7},
	} {
		cells = append(cells, cell{cfg.name(), cfg, pp93})
	}
	for _, m := range otherMappers {
		cfg, build := Config{Shards: 1}, m.build
		cells = append(cells, cell{cfg.name() + "/" + m.name, cfg, func(t testing.TB) protocol.Mapper {
			m, err := build()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}})
	}
	for _, cell := range cells {
		cell := cell
		for _, clients := range clientCounts {
			clients := clients
			t.Run(cell.name+"/c"+string(rune('0'+clients/10))+string(rune('0'+clients%10)), func(t *testing.T) {
				t.Parallel()
				// Every cell's protocol facts go to one collector
				// shared by its shards.
				col := obs.NewCollector()
				cfg := cell.cfg
				cfg.Protocol.Observer, cfg.Protocol.Recorder = col, col
				svc, err := New(cell.mapper(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = svc.Close() })
				recs := runShardClients(t, svc, clients, opsPer, int64(42+clients))
				if err := svc.Flush(); err != nil {
					t.Fatal(err)
				}
				checkShardOracle(t, svc, recs)
				st := svc.Stats()
				if st.Total.OpsIn != int64(clients*opsPer) {
					t.Fatalf("ops in = %d, want %d", st.Total.OpsIn, clients*opsPer)
				}
				if st.Total.FailedBatches != 0 || col.Unfinished.Load() != 0 {
					t.Fatalf("failures during hammer: %d unfinished requests, %+v", col.Unfinished.Load(), st.Total)
				}
				if clients >= 64 && st.Total.CombiningRate() <= 0 {
					t.Fatalf("no combining under %d concurrent clients: %+v", clients, st.Total)
				}
			})
		}
	}
}
