package frontend

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/protocol"
)

// The differential stress test: many goroutine clients hammer the frontend
// with overlapping hot-spot traffic, every operation records the commit
// sequence number the dispatcher assigned it, and afterwards a plain
// map[uint64]uint64 replays all operations in sequence order — every read
// must have returned exactly the oracle's value at its point in the order.
// This is the linearizability check made executable: the frontend's
// combining (read sharing, last-writer-wins coalescing, read-after-write
// forwarding, conflict flushes) must be invisible to clients.
//
// The matrix covers every Mapper in the repository (PP93 q=2 and q=4, MV,
// single-copy, UW) under 1..64 clients. A full run
// commits > 10^5 operations; -short (as in the -race CI lane) shrinks the
// client/op counts but keeps the whole matrix.

// record is one committed operation as a client observed it.
type record struct {
	seq   uint64
	write bool
	v     uint64
	val   uint64 // written value (writes) or returned value (reads)
}

// diffCase is one backend geometry under test.
type diffCase struct {
	name string
	vars uint64
	sys  func(t *testing.T, cfg protocol.Config) *protocol.System
}

// Schemes are built fresh per configuration so each run starts from a
// zeroed store; the PP93 instances share their (expensive) scheme+indexer.
var (
	diffOnce  sync.Once
	diffCores map[string]struct {
		s   *core.Scheme
		idx core.Indexer
	}
)

func diffSetup(t testing.TB) {
	diffOnce.Do(func() {
		diffCores = make(map[string]struct {
			s   *core.Scheme
			idx core.Indexer
		})
		for name, mn := range map[string][2]int{"pp93-q2": {1, 3}, "pp93-q4": {2, 3}} {
			s, err := core.New(mn[0], mn[1])
			if err != nil {
				t.Fatal(err)
			}
			idx, err := s.NewIndexer()
			if err != nil {
				t.Fatal(err)
			}
			diffCores[name] = struct {
				s   *core.Scheme
				idx core.Indexer
			}{s, idx}
		}
	})
}

func diffCases(t *testing.T) []diffCase {
	diffSetup(t)
	ppSys := func(name string) func(*testing.T, protocol.Config) *protocol.System {
		return func(t *testing.T, cfg protocol.Config) *protocol.System {
			c := diffCores[name]
			sys, err := protocol.NewSystem(c.s, c.idx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	generic := func(build func() (protocol.Mapper, error)) func(*testing.T, protocol.Config) *protocol.System {
		return func(t *testing.T, cfg protocol.Config) *protocol.System {
			m, err := build()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := protocol.NewGenericSystem(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	return []diffCase{
		{"pp93-q2", diffCores["pp93-q2"].idx.M(), ppSys("pp93-q2")},
		{"pp93-q4", diffCores["pp93-q4"].idx.M(), ppSys("pp93-q4")},
		{"mv-c2", 4096, generic(func() (protocol.Mapper, error) {
			return baseline.NewMV(64, 4096, 2)
		})},
		{"single", 4096, generic(func() (protocol.Mapper, error) {
			return baseline.NewSingleCopy(64, 4096, baseline.PlaceInterleaved, 0)
		})},
		{"uw-c2", 4096, generic(func() (protocol.Mapper, error) {
			return baseline.NewUW(64, 4096, 2, 7)
		})},
	}
}

// runClients drives the frontend with hot-spot traffic and returns every
// committed operation. Clients submit asynchronously in windows so that
// batches genuinely combine, and record each future after it resolves.
func runClients(t *testing.T, fe *Frontend, vars uint64, clients, opsPerClient int, seed int64) []record {
	t.Helper()
	const window = 32
	const hotVars = 8
	var (
		mu  sync.Mutex
		all []record
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			recs := make([]record, 0, opsPerClient)
			type slot struct {
				fut   *Future
				write bool
				v     uint64
				val   uint64
			}
			pending := make([]slot, 0, window)
			drain := func() {
				for _, s := range pending {
					got, err := s.fut.Wait()
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					r := record{seq: s.fut.Seq(), write: s.write, v: s.v, val: got}
					if s.write {
						r.val = s.val
					}
					recs = append(recs, r)
				}
				pending = pending[:0]
			}
			for i := 0; i < opsPerClient; i++ {
				v := uint64(rng.Int63n(hotVars))
				if rng.Intn(100) >= 60 { // 60% of traffic on the hot set
					v = uint64(rng.Int63n(int64(vars)))
				}
				if rng.Intn(100) < 40 { // 40% writes
					val := uint64(c)<<32 | uint64(i) | 1
					fut, err := fe.WriteAsync(v, val)
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					pending = append(pending, slot{fut, true, v, val})
				} else {
					fut, err := fe.ReadAsync(v)
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					pending = append(pending, slot{fut, false, v, 0})
				}
				if len(pending) == window {
					drain()
				}
			}
			drain()
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// checkOracle replays the records in commit order against a plain map.
func checkOracle(t *testing.T, recs []record, expectOps int) {
	t.Helper()
	if len(recs) != expectOps {
		t.Fatalf("recorded %d ops, expected %d", len(recs), expectOps)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	oracle := make(map[uint64]uint64)
	for i, r := range recs {
		if i > 0 && recs[i-1].seq == r.seq {
			t.Fatalf("duplicate commit sequence %d", r.seq)
		}
		if r.write {
			oracle[r.v] = r.val
			continue
		}
		if want := oracle[r.v]; r.val != want {
			t.Fatalf("seq %d: read of var %d returned %d, oracle says %d", r.seq, r.v, r.val, want)
		}
	}
}

// TestDifferentialOracle is the full matrix. It totals ≥ 10^5 committed
// operations in a full run (5 schemes × three client counts).
func TestDifferentialOracle(t *testing.T) {
	clientSweeps := []struct {
		clients, ops int
	}{{1, 2400}, {8, 1000}, {64, 200}}
	if testing.Short() {
		clientSweeps = []struct {
			clients, ops int
		}{{1, 120}, {8, 60}, {64, 10}}
	}
	total := 0
	for _, tc := range diffCases(t) {
		for _, sweep := range clientSweeps {
			// parallel=false: the cell ids stay those the committed test floor lists.
			name := fmt.Sprintf("%s/parallel=false/clients=%d", tc.name, sweep.clients)
			t.Run(name, func(t *testing.T) {
				sys := tc.sys(t, protocol.Config{})
				fe, err := New(sys, Config{})
				if err != nil {
					t.Fatal(err)
				}
				recs := runClients(t, fe, tc.vars, sweep.clients, sweep.ops, int64(len(name)))
				if err := fe.Close(); err != nil {
					t.Fatal(err)
				}
				if t.Failed() {
					t.FailNow()
				}
				checkOracle(t, recs, sweep.clients*sweep.ops)
				s := fe.Stats()
				if s.OpsIn != int64(len(recs)) {
					t.Fatalf("stats OpsIn = %d, committed %d", s.OpsIn, len(recs))
				}
				if sweep.clients >= 64 && s.CombiningRate() <= 0 {
					t.Fatalf("no combining under %d concurrent clients: %+v", sweep.clients, s)
				}
			})
			total += sweep.clients * sweep.ops
		}
	}
	if !testing.Short() && total < 100000 {
		t.Fatalf("matrix committed only %d ops, want >= 1e5", total)
	}
}
