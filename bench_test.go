package detshmem

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"detshmem/internal/affine"
	"detshmem/internal/analysis"
	"detshmem/internal/audit"
	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/experiments"
	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/network"
	"detshmem/internal/pram"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// The benchmarks below regenerate the measured side of every experiment in
// DESIGN.md's per-experiment index (E1–E15), plus the ablations. Each bench
// reports domain metrics (MPC rounds, Φ) alongside ns/op.

func mustScheme(b *testing.B, m, n int) (*core.Scheme, core.Indexer) {
	b.Helper()
	s, err := core.New(m, n)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		b.Fatal(err)
	}
	return s, idx
}

func mustSystem(b *testing.B, m, n int, cfg protocol.Config) *protocol.System {
	b.Helper()
	s, idx := mustScheme(b, m, n)
	sys, err := protocol.NewSystem(s, idx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkE1GraphParameters measures instance construction (field tables,
// group setup, Theorem 8 indexer) per extension degree.
func BenchmarkE1GraphParameters(b *testing.B) {
	for _, n := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.New(1, n)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.NewIndexer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2PairwiseIntersection measures the Theorem 2 check: computing
// |Γ(v1)∩Γ(v2)| for random variable pairs.
func BenchmarkE2PairwiseIntersection(b *testing.B) {
	s, idx := mustScheme(b, 1, 7)
	rng := rand.New(rand.NewSource(1))
	var bufA, bufB []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(rng.Int63n(int64(idx.M())))
		c := uint64(rng.Int63n(int64(idx.M())))
		bufA = s.VarModules(bufA[:0], idx.Mat(a))
		bufB = s.VarModules(bufB[:0], idx.Mat(c))
		inter := 0
		for _, x := range bufA {
			for _, y := range bufB {
				if x == y {
					inter++
				}
			}
		}
		if a != c && inter > 1 {
			b.Fatal("Theorem 2 violated")
		}
	}
}

// BenchmarkE3GammaSquared measures computing Γ²(u) for random modules.
func BenchmarkE3GammaSquared(b *testing.B) {
	s, _ := mustScheme(b, 1, 5)
	rng := rand.New(rand.NewSource(2))
	var buf []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := uint64(rng.Int63n(int64(s.NumModules)))
		out := make(map[uint64]struct{}, s.F.Order)
		for k := uint32(0); k < s.ModuleSize; k++ {
			buf = s.VarModules(buf[:0], s.ModuleVarMat(j, k))
			for _, j2 := range buf {
				if j2 != j {
					out[j2] = struct{}{}
				}
			}
		}
		if uint32(len(out)) != s.F.Order {
			b.Fatal("Lemma 3 violated")
		}
	}
}

// BenchmarkE4Expansion measures |Γ(S)| computation for random sets of 1024
// variables (the Theorem 4 witness measurement).
func BenchmarkE4Expansion(b *testing.B) {
	s, idx := mustScheme(b, 1, 7)
	rng := rand.New(rand.NewSource(3))
	vars := workload.DistinctRandom(rng, idx.M(), 1024)
	floor := analysis.Theorem4Lower(len(vars), s.Q)
	var buf []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mods := make(map[uint64]struct{})
		for _, v := range vars {
			buf = s.VarModules(buf[:0], idx.Mat(v))
			for _, j := range buf {
				mods[j] = struct{}{}
			}
		}
		if float64(len(mods)) < floor {
			b.Fatal("Theorem 4 violated")
		}
	}
}

// BenchmarkE5Recurrence measures a traced full-N batch (the Recurrence (2)
// measurement) and reports Φ.
func BenchmarkE5Recurrence(b *testing.B) {
	sys := mustSystem(b, 1, 5, protocol.Config{TraceLive: true})
	N := int(sys.Scheme.NumModules)
	rng := rand.New(rand.NewSource(4))
	vals := make([]uint64, N)
	var phi int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vars := workload.DistinctRandom(rng, sys.Index.M(), N)
		met, err := sys.WriteBatch(vars, vals)
		if err != nil {
			b.Fatal(err)
		}
		phi = met.MaxIterations
	}
	b.ReportMetric(float64(phi), "phi")
}

// hotPathVariants enumerates the resolver ablation: live CopyAddr resolution
// and the compiled table. The labels are the ones the bench-regression gate
// matches against its base run.
func hotPathVariants(b *testing.B, m, n int) []struct {
	name string
	cfg  protocol.Config
} {
	b.Helper()
	s, idx := mustScheme(b, m, n)
	res, err := protocol.CompileMapper(protocol.NewCoreMapper(s, idx), protocol.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		cfg  protocol.Config
	}{
		// Computed, not the zero value: shard.New compiles a table of its own
		// for a mapper this size when the strategy leaves it the choice.
		{"live+seq", protocol.Config{Strategy: protocol.ResolverComputed}},
		{"compiled+seq", protocol.Config{Resolver: res}},
	}
}

// BenchmarkE6ProtocolScaling measures full-batch access per degree; the
// reported phi column is the Theorem 6 quantity. Variants cover the
// resolver ablation (see E16).
func BenchmarkE6ProtocolScaling(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		for _, variant := range hotPathVariants(b, 1, n) {
			b.Run(fmt.Sprintf("n=%d/%s", n, variant.name), func(b *testing.B) {
				sys := mustSystem(b, 1, n, variant.cfg)
				defer sys.Close()
				N := int(sys.Scheme.NumModules)
				rng := rand.New(rand.NewSource(5))
				vars := workload.DistinctRandom(rng, sys.Index.M(), N)
				vals := make([]uint64, N)
				var phi, rounds int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					met, err := sys.WriteBatch(vars, vals)
					if err != nil {
						b.Fatal(err)
					}
					phi, rounds = met.MaxIterations, met.TotalRounds
				}
				b.ReportMetric(float64(phi), "phi")
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

// BenchmarkE7Baselines measures a 1024-variable random write batch under
// each organization (the E7 comparison's random row).
func BenchmarkE7Baselines(b *testing.B) {
	s, idx := mustScheme(b, 1, 7)
	N, M := s.NumModules, s.NumVariables
	mappers := map[string]protocol.Mapper{
		"pp93": protocol.NewCoreMapper(s, idx),
	}
	if mv, err := baseline.NewMV(N, M, 2); err == nil {
		mappers["mv-c2"] = mv
	}
	if sc, err := baseline.NewSingleCopy(N, M, baseline.PlaceHashed, 7); err == nil {
		mappers["single"] = sc
	}
	if uw, err := baseline.NewUW(N, M, 7, 7); err == nil {
		mappers["uw-c7"] = uw
	}
	rng := rand.New(rand.NewSource(6))
	vars := workload.DistinctRandom(rng, M, 1024)
	vals := make([]uint64, len(vars))
	for name, m := range mappers {
		m := m
		b.Run(name, func(b *testing.B) {
			sys, err := protocol.NewGenericSystem(m, protocol.Config{})
			if err != nil {
				b.Fatal(err)
			}
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met, err := sys.WriteBatch(vars, vals)
				if err != nil {
					b.Fatal(err)
				}
				rounds = met.TotalRounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkE8LowerBound measures the greedy-adversary batch against the PP
// scheme and reports achieved rounds vs the Theorem 7 floor.
func BenchmarkE8LowerBound(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	m := protocol.NewCoreMapper(s, idx)
	rng := rand.New(rand.NewSource(7))
	batch := analysis.GreedyAdversary(m, 512, 4000, rng)
	sys, err := protocol.NewGenericSystem(m, protocol.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, met, err := sys.ReadBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		rounds = met.TotalRounds
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(analysis.Theorem7Lower(m.NumVars(), m.NumModules(), m.Copies()), "floor")
}

// BenchmarkE9Addressing measures the Section 4 address computations.
func BenchmarkE9Addressing(b *testing.B) {
	for _, n := range []int{5, 7, 9, 11} {
		s, err := core.New(1, n)
		if err != nil {
			b.Fatal(err)
		}
		ex, err := core.NewExplicitIndexer(s)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		ids := make([]uint64, 4096)
		for i := range ids {
			ids[i] = uint64(rng.Int63n(int64(ex.M())))
		}
		b.Run(fmt.Sprintf("Mat/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ex.Mat(ids[i&4095])
			}
		})
		b.Run(fmt.Sprintf("CopyLocation/n=%d", n), func(b *testing.B) {
			a := ex.Mat(ids[0])
			var sink uint64
			for i := 0; i < b.N; i++ {
				mod, off := s.CopyLocation(a, i%s.Copies)
				sink += mod + uint64(off)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("Index/n=%d", n), func(b *testing.B) {
			a := ex.Mat(ids[1])
			for i := 0; i < b.N; i++ {
				if _, ok := ex.Index(a); !ok {
					b.Fatal("inverse failed")
				}
			}
		})
	}
}

// BenchmarkE10PRAM measures a full parallel prefix sum (512 cells) through
// the PP organization.
func BenchmarkE10PRAM(b *testing.B) {
	sys := mustSystem(b, 1, 5, protocol.Config{})
	p := pram.New(sys)
	const n = 512
	addrs := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i)
		vals[i] = 1
	}
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(addrs, vals); err != nil {
			b.Fatal(err)
		}
		p.Rounds = 0
		if _, err := p.PrefixSum(0, n); err != nil {
			b.Fatal(err)
		}
		rounds = p.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkAblationArbitration compares module arbitration policies
// (DESIGN.md §5: Φ should be insensitive).
func BenchmarkAblationArbitration(b *testing.B) {
	for name, arb := range map[string]mpc.Arbiter{
		"lowest":      mpc.ArbLowest,
		"round-robin": mpc.ArbRoundRobin,
		"random":      mpc.ArbRandom,
	} {
		arb := arb
		b.Run(name, func(b *testing.B) {
			sys := mustSystem(b, 1, 5, protocol.Config{Arb: arb, Seed: 11})
			N := int(sys.Scheme.NumModules)
			rng := rand.New(rand.NewSource(9))
			vars := workload.DistinctRandom(rng, sys.Index.M(), N)
			vals := make([]uint64, N)
			var phi int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met, err := sys.WriteBatch(vars, vals)
				if err != nil {
					b.Fatal(err)
				}
				phi = met.MaxIterations
			}
			b.ReportMetric(float64(phi), "phi")
		})
	}
}

// BenchmarkAblationCopyChoice compares the paper's all-copies-with-
// cancellation rule against fixed-quorum targeting.
func BenchmarkAblationCopyChoice(b *testing.B) {
	for name, pol := range map[string]protocol.CopyPolicy{
		"all-cancel":     protocol.PolicyAllCancel,
		"fixed-majority": protocol.PolicyFixedMajority,
	} {
		pol := pol
		b.Run(name, func(b *testing.B) {
			sys := mustSystem(b, 1, 5, protocol.Config{Policy: pol})
			N := int(sys.Scheme.NumModules)
			rng := rand.New(rand.NewSource(10))
			vars := workload.DistinctRandom(rng, sys.Index.M(), N)
			vals := make([]uint64, N)
			var phi, rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met, err := sys.WriteBatch(vars, vals)
				if err != nil {
					b.Fatal(err)
				}
				phi, rounds = met.MaxIterations, met.TotalRounds
			}
			b.ReportMetric(float64(phi), "phi")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationClusterSize shows the effect of decoupling cluster size
// from the copy count (larger clusters = fewer concurrent variables,
// more phases).
func BenchmarkAblationClusterSize(b *testing.B) {
	for _, cs := range []int{3, 6, 12} {
		cs := cs
		b.Run(fmt.Sprintf("cluster=%d", cs), func(b *testing.B) {
			sys := mustSystem(b, 1, 5, protocol.Config{ClusterSize: cs})
			N := int(sys.Scheme.NumModules)
			rng := rand.New(rand.NewSource(12))
			vars := workload.DistinctRandom(rng, sys.Index.M(), N)
			vals := make([]uint64, N)
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met, err := sys.WriteBatch(vars, vals)
				if err != nil {
					b.Fatal(err)
				}
				rounds = met.TotalRounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkExperimentTables regenerates every E-table in quick mode (the
// bench-driven path to the same outputs cmd/smembench prints).
func BenchmarkExperimentTables(b *testing.B) {
	for _, r := range experiments.All() {
		r := r
		b.Run(r.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.Run(io.Discard, experiments.Options{Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12Routing measures one full protocol batch over each
// bounded-degree topology and reports the routed interconnect cost.
func BenchmarkE12Routing(b *testing.B) {
	for _, topo := range []network.Topology{network.TopoButterfly, network.TopoHypercube} {
		topo := topo
		b.Run(topo.String(), func(b *testing.B) {
			sys := mustSystem(b, 1, 5, protocol.Config{
				NewMachine: func(cfg mpc.Config) (protocol.Machine, error) {
					return network.NewMachineTopology(cfg, topo)
				},
			})
			N := int(sys.Scheme.NumModules)
			rng := rand.New(rand.NewSource(13))
			vars := workload.DistinctRandom(rng, sys.Index.M(), N)
			vals := make([]uint64, N)
			var cost uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met, err := sys.WriteBatch(vars, vals)
				if err != nil {
					b.Fatal(err)
				}
				cost = met.InterconnectCost
			}
			b.ReportMetric(float64(cost), "linksteps")
		})
	}
}

// BenchmarkRouteMakespan measures raw permutation routing on both topologies.
func BenchmarkRouteMakespan(b *testing.B) {
	const size = 1024
	rng := rand.New(rand.NewSource(14))
	perm := rng.Perm(size)
	src := make([]int64, size)
	dst := make([]int64, size)
	for i := range perm {
		src[i] = int64(i)
		dst[i] = int64(perm[i])
	}
	b.Run("butterfly", func(b *testing.B) {
		bf, err := network.NewButterfly(size)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			bf.RouteMakespan(src, dst)
		}
	})
	b.Run("hypercube", func(b *testing.B) {
		hc, err := network.NewHypercube(size)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			hc.RouteMakespan(src, dst)
		}
	})
}

// BenchmarkE13Affine measures the companion Θ(N²)-regime scheme on its
// adversarial grid batch (the √N'-tight set family).
func BenchmarkE13Affine(b *testing.B) {
	plane, err := affine.New(337, 3)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := protocol.NewGenericSystem(plane, protocol.Config{})
	if err != nil {
		b.Fatal(err)
	}
	batch := plane.WorstBatch(900)
	vals := make([]uint64, len(batch))
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, err := sys.WriteBatch(batch, vals)
		if err != nil {
			b.Fatal(err)
		}
		rounds = met.TotalRounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE14Audit measures a full structural audit of the PP scheme.
func BenchmarkE14Audit(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	m := protocol.NewCoreMapper(s, idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := audit.Run(m, audit.Options{PairSamples: 5000, SetSamples: 8})
		if err != nil {
			b.Fatal(err)
		}
		if r.PlacementErrors != 0 || r.MaxPairIntersection > 1 {
			b.Fatal("audit failed")
		}
	}
}

// benchClients is the client side of the serving-path benchmarks: 8
// goroutines split b.N operations (every third a write) over HotSpot streams
// seeded from seed — hotP is the probability of hitting the 16-variable hot
// set — submitting asynchronously and waiting in windows of 64. It resets the
// timer before the first submission.
func benchClients(b *testing.B, svc *shard.Service, vars uint64, seed int64, hotP float64) {
	const clients, window = 8, 64
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + seed))
			stream := workload.HotSpot(rng, vars, (b.N+clients-1)/clients, 16, hotP)
			pending := make([]*frontend.Future, 0, window)
			drain := func() bool {
				for _, fut := range pending {
					if _, err := fut.Wait(); err != nil {
						b.Error(err)
						return false
					}
				}
				pending = pending[:0]
				return true
			}
			for i, v := range stream {
				var fut *frontend.Future
				var err error
				if i%3 == 0 {
					fut, err = svc.WriteAsync(v, uint64(i))
				} else {
					fut, err = svc.ReadAsync(v)
				}
				if err != nil {
					b.Error(err)
					return
				}
				pending = append(pending, fut)
				if len(pending) == window && !drain() {
					return
				}
			}
			drain()
		}(c)
	}
	wg.Wait()
}

// BenchmarkE15Frontend measures request combining at a single shard: 8
// concurrent clients submitting asynchronous hot-spot traffic over the PP93
// system, reporting the fraction of ops that never became protocol requests.
// Variants cover the resolver ablation (see E16).
func BenchmarkE15Frontend(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	mapper := protocol.NewCoreMapper(s, idx)
	workloads := []struct {
		name string
		p    float64
	}{
		{"hot-spot", 0.85},
		{"uniform", 0},
	}
	for _, variant := range hotPathVariants(b, 1, 5) {
		for _, wl := range workloads {
			wl := wl
			b.Run(variant.name+"/"+wl.name, func(b *testing.B) {
				svc, err := shard.New(mapper, shard.Config{Protocol: variant.cfg})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				benchClients(b, svc, mapper.NumVars(), 42, wl.p)
				b.ReportMetric(svc.Stats().Total.CombiningRate(), "combined/op")
			})
		}
	}
}

// BenchmarkE18ShardedFrontend measures the sharded execution layer at CI
// scale (n=5): concurrent clients drive async windows against the service
// and every sub-benchmark name carries "sharded" so the bench-regression
// gate can track the family. S=1 is the single-dispatcher baseline. E18 is
// the full-scale (n=7) sweep behind BENCH_PR4.json.
func BenchmarkE18ShardedFrontend(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	mapper := protocol.NewCoreMapper(s, idx)
	res, err := protocol.CompileMapper(mapper, protocol.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	workloads := []struct {
		name string
		p    float64
	}{
		{"uniform", 0},
		{"hot-spot", 0.85},
	}
	for _, shards := range []int{1, 4} {
		for _, wl := range workloads {
			wl := wl
			b.Run(fmt.Sprintf("sharded/S=%d/%s", shards, wl.name), func(b *testing.B) {
				svc, err := shard.New(mapper, shard.Config{
					Shards:   shards,
					Protocol: protocol.Config{Resolver: res},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				benchClients(b, svc, mapper.NumVars(), 18, wl.p)
				st := svc.Stats()
				b.ReportMetric(st.Total.CombiningRate(), "combined/op")
				b.ReportMetric(st.Imbalance(), "imbalance")
			})
		}
	}
}

// benchBatchedClients is benchClients through the cross-shard batch API:
// each window is one AccessBatch call.
func benchBatchedClients(b *testing.B, svc *shard.Service, vars uint64, seed int64) {
	const clients, window = 8, 64
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + seed))
			stream := workload.HotSpot(rng, vars, (b.N+clients-1)/clients, 16, 0)
			ops := make([]shard.BatchOp, 0, window)
			flush := func() bool {
				if len(ops) == 0 {
					return true
				}
				batch, err := svc.AccessBatch(ops)
				if err == nil {
					err = batch.Wait()
				}
				if err != nil {
					b.Error(err)
					return false
				}
				ops = ops[:0]
				return true
			}
			for i, v := range stream {
				if i%3 == 0 {
					ops = append(ops, shard.BatchOp{Write: true, Var: v, Val: uint64(i)})
				} else {
					ops = append(ops, shard.BatchOp{Var: v})
				}
				if len(ops) == window && !flush() {
					return
				}
			}
			flush()
		}(c)
	}
	wg.Wait()
}

// BenchmarkE21MulticoreScaling measures the lock-free execution layer under
// an explicit GOMAXPROCS sweep at CI scale (n=5): the per-op path and the
// cross-shard AccessBatch path, each at 1 and 4 procs. Sub-benchmark names
// carry both "sharded" and "procs=" so the bench-regression gate's family
// regex and the parallel-variant requirement match them. E21 is the
// full-scale (n=7) sweep behind BENCH_PR7.json.
func BenchmarkE21MulticoreScaling(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	mapper := protocol.NewCoreMapper(s, idx)
	res, err := protocol.CompileMapper(mapper, protocol.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name    string
		shards  int
		batched bool
	}{
		{"S=4", 4, false},
		{"S=4/batched", 4, true},
	}
	for _, procs := range []int{1, 4} {
		for _, cfg := range configs {
			cfg := cfg
			b.Run(fmt.Sprintf("sharded/%s/procs=%d", cfg.name, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				svc, err := shard.New(mapper, shard.Config{
					Shards:   cfg.shards,
					Protocol: protocol.Config{Resolver: res},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				if cfg.batched {
					benchBatchedClients(b, svc, mapper.NumVars(), 21)
				} else {
					benchClients(b, svc, mapper.NumVars(), 21, 0)
				}
				st := svc.Stats()
				b.ReportMetric(st.Total.CombiningRate(), "combined/op")
				b.ReportMetric(float64(st.Total.MaxQueueDepth), "maxdepth")
			})
		}
	}
}

// BenchmarkE11FailureMasking measures a full batch with one failed module
// (the masked-failure fast path).
func BenchmarkE11FailureMasking(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	sys, err := protocol.NewSystem(s, idx, protocol.Config{
		NewMachine: func(cfg mpc.Config) (protocol.Machine, error) {
			return mpc.NewFailing(cfg, []uint64{0})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	N := int(s.NumModules)
	vars := make([]uint64, N)
	vals := make([]uint64, N)
	for i := range vars {
		vars[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.WriteBatch(vars, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPRAMBitonicSort measures the full Batcher network over the PP
// shared memory.
func BenchmarkPRAMBitonicSort(b *testing.B) {
	sys := mustSystem(b, 1, 5, protocol.Config{})
	p := pram.New(sys)
	const n = 256
	rng := rand.New(rand.NewSource(15))
	addrs := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i)
		vals[i] = rng.Uint64() % 100000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(addrs, vals); err != nil {
			b.Fatal(err)
		}
		if err := p.BitonicSort(0, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE22NetTransport measures the MPC transport boundary at CI scale
// (n=5): the same windowed 8-client workload over the in-process machine
// and over a 4-server loopback TCP cluster (internal/netmpc). Sub-benchmark
// names carry "transport=" so the bench-regression gate can require both
// variants; the tcp/inproc ratio is the round-trip cost of networking the
// module servers. E22 is the full-scale (n=7) run behind BENCH_PR8.json.
func BenchmarkE22NetTransport(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	mapper := protocol.NewCoreMapper(s, idx)
	res, err := protocol.CompileMapper(mapper, protocol.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, tr protocol.Transport) {
		cfg := shard.Config{
			Protocol: protocol.Config{Resolver: res},
		}
		if tr != nil {
			cfg.Transport = func(int) protocol.Transport { return tr }
		}
		svc, err := shard.New(mapper, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		benchClients(b, svc, mapper.NumVars(), 22, 0)
	}
	b.Run("transport=inproc", func(b *testing.B) { run(b, nil) })
	b.Run("transport=tcp", func(b *testing.B) {
		const nServers = 4
		addrs := make([]string, nServers)
		for i := 0; i < nServers; i++ {
			lo, hi := netmpc.Range(i, nServers, int64(s.NumModules))
			sv := netmpc.NewServer(netmpc.ServerConfig{
				Q: s.Q, N: uint32(s.Deg), Modules: s.NumModules,
				AddrSpace: s.NumModules * uint64(s.ModuleSize),
				RangeLo:   uint64(lo), RangeHi: uint64(hi),
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go sv.Serve(ln)
			defer sv.Close()
			addrs[i] = ln.Addr().String()
		}
		tr, err := netmpc.Dial(netmpc.Config{
			Servers: addrs, Q: s.Q, N: uint32(s.Deg),
			Modules:   int64(s.NumModules),
			AddrSpace: s.NumModules * uint64(s.ModuleSize),
			StoreID:   7,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		run(b, tr)
	})
}

// BenchmarkE23Resolver measures the address-resolution strategies behind E23
// at CI scale (q=2, n=5): one 256-variable Zipf block resolved into full copy
// rows per iteration, through the live per-op path, the batched computed
// kernels and the compiled table. Sub-benchmark names carry "resolver=" so
// the bench-regression gate can require the computed and compiled variants;
// allocation counts pin the batched path's zero-steady-state-alloc property.
// E23 is the full-scale large-(q, n) sweep.
func BenchmarkE23Resolver(b *testing.B) {
	s, idx := mustScheme(b, 1, 5)
	mp := protocol.NewCoreMapper(s, idx)
	copies := mp.Copies()
	const block = 256
	stream := workload.Zipf(rand.New(rand.NewSource(23)), s.NumVariables, block, 1.1)
	bm := make([]uint64, 0, block*copies)
	ba := make([]uint64, 0, block*copies)
	var sink uint64
	b.Run("resolver=per-op", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range stream {
				for c := 0; c < copies; c++ {
					mod, addr := mp.CopyAddr(v, c)
					sink += mod + addr
				}
			}
		}
	})
	b.Run("resolver=computed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bm, ba = protocol.AppendCopyAddrs(mp, bm[:0], ba[:0], stream, copies)
			sink += bm[0] + ba[len(ba)-1]
		}
	})
	b.Run("resolver=compiled", func(b *testing.B) {
		res, err := protocol.CompileMapper(mp, protocol.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bm, ba = protocol.AppendCopyAddrs(res, bm[:0], ba[:0], stream, copies)
			sink += bm[0] + ba[len(ba)-1]
		}
	})
	_ = sink
}

// BenchmarkE24Repair measures the self-healing repair cycle behind E24 at CI
// scale (q=2, n=5): each iteration wipes one module, re-admits it, and runs
// a fixed read/write block to completion. With repair=on the module comes
// back through RecoverPending — barred from read quorums until the
// background sweep has rebuilt and certified its copies, which the
// iteration drains to empty — so ns/op carries the full rebuild cost. With
// repair=off the module is legacy-Recovered straight to live and the same
// block runs with no repair work: the delta is the price of never serving a
// stale copy. Sub-benchmark names carry "repair=" for the bench-regression
// gate.
func BenchmarkE24Repair(b *testing.B) {
	run := func(b *testing.B, repair bool) {
		s, idx := mustScheme(b, 1, 5)
		fs := mpc.NewFaultSet()
		sys, err := protocol.NewSystem(s, idx, protocol.Config{
			MaxIterationsPerPhase: 2048,
			NewMachine: func(cfg mpc.Config) (protocol.Machine, error) {
				return mpc.NewFailingShared(cfg, fs)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		const block = 64
		vars := make([]uint64, block)
		vals := make([]uint64, block)
		for i := range vars {
			vars[i] = uint64(i*7+3) % s.NumVariables
			vals[i] = uint64(i + 1)
		}
		if _, err := sys.WriteBatch(vars, vals); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := uint64(i) % s.NumModules
			fs.Fail(m)
			if repair {
				fs.RecoverPending(m)
			} else {
				fs.Recover(m)
			}
			if _, err := sys.WriteBatch(vars, vals); err != nil {
				b.Fatal(err)
			}
			if _, _, err := sys.ReadBatch(vars); err != nil {
				b.Fatal(err)
			}
			for fs.RepairCount() > 0 {
				if !sys.RepairStep() {
					b.Fatalf("repair stalled with backlog %d", fs.RepairCount())
				}
			}
		}
	}
	b.Run("repair=on", func(b *testing.B) { run(b, true) })
	b.Run("repair=off", func(b *testing.B) { run(b, false) })
}

// BenchmarkFaultSetRange measures what taking a server's range down and
// re-admitting it costs the fault set at N = 16 383 with a quarter of the
// modules in the range: the per-module loop publishes one snapshot per
// module (O(N/64) words each), the range call one snapshot for all of them.
// One iteration is the whole cycle Fail, RecoverPending, certify.
func BenchmarkFaultSetRange(b *testing.B) {
	const n = 16383
	lo, hi := uint64(n/2), uint64(n/2+n/4)
	mods := make([]uint64, 0, hi-lo)
	gens := make([]uint64, 0, hi-lo)
	b.Run("api=loop", func(b *testing.B) {
		fs := mpc.NewFaultSet()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for m := lo; m < hi; m++ {
				fs.Fail(m)
			}
			for m := lo; m < hi; m++ {
				fs.RecoverPending(m)
			}
			for m := lo; m < hi; m++ {
				fs.Certify(m, fs.RepairGen(m))
			}
		}
	})
	b.Run("api=range", func(b *testing.B) {
		fs := mpc.NewFaultSet()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs.FailRange(lo, hi)
			fs.RecoverPendingRange(lo, hi)
			mods, gens = fs.AppendRepairing(mods[:0]), gens[:0]
			for _, m := range mods {
				gens = append(gens, fs.RepairGen(m))
			}
			if got := fs.CertifyBatch(mods, gens); got != len(mods) {
				b.Fatalf("certified %d of %d", got, len(mods))
			}
		}
	})
}

// BenchmarkRepairSweep measures one whole background sweep at the suite's
// fault-repair scale (q=2, n=7: 16 383 modules, a contiguous quarter of them
// re-admitted through the repair queue) with no traffic beside it: every
// variable is scanned, the ~58 % with a copy in the range are read, and the
// copies a degraded-mode write pass left stale are rewritten. Sub-benchmark
// names carry "resolver=" like E23's.
func BenchmarkRepairSweep(b *testing.B) {
	s, idx := mustScheme(b, 1, 7)
	table, err := protocol.CompileMapper(protocol.NewCoreMapper(s, idx), protocol.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := s.NumModules/2, s.NumModules/2+s.NumModules/4
	for _, tc := range []struct {
		name string
		cfg  protocol.Config
	}{
		{"resolver=compiled", protocol.Config{Resolver: table}},
		{"resolver=computed", protocol.Config{Strategy: protocol.ResolverComputed}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fs := mpc.NewFaultSet()
			cfg := tc.cfg
			cfg.MaxIterationsPerPhase = 2048
			cfg.NewMachine = func(mcfg mpc.Config) (protocol.Machine, error) {
				return mpc.NewFailingShared(mcfg, fs)
			}
			sys, err := protocol.NewSystem(s, idx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			// Every 16th variable is written each iteration while the range
			// is down, so each sweep has stale copies to rebuild.
			const block = 4096
			vars := make([]uint64, block)
			vals := make([]uint64, block)
			for i := range vars {
				vars[i] = uint64(i) * 16 % s.NumVariables
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs.FailRange(lo, hi)
				for k := range vals {
					vals[k] = uint64(i*block + k + 1)
				}
				if _, err := sys.WriteBatch(vars, vals); err != nil && !errors.Is(err, protocol.ErrQuorumUnreachable) {
					b.Fatal(err)
				}
				fs.RecoverPendingRange(lo, hi)
				b.StartTimer()
				for fs.RepairCount() > 0 {
					if !sys.RepairStep() {
						b.Fatalf("repair stalled with backlog %d", fs.RepairCount())
					}
				}
			}
			b.ReportMetric(float64(s.NumVariables), "vars/sweep")
		})
	}
}

// BenchmarkPendingCycle is the combining core's share of one flush with no
// backend behind it: admit distinct variables (every fourth a write, each
// preceded by the dispatchers' WriteConflicts probe), serialize the requests,
// fan a result out and reset. 64 is a client window, 4096 a PRAM step.
func BenchmarkPendingCycle(b *testing.B) {
	for _, distinct := range []int{64, 4096} {
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			p := frontend.NewPending(distinct)
			futs := make([]*frontend.Future, distinct)
			for i := range futs {
				futs[i] = frontend.NewFuture()
			}
			res := &protocol.Result{Values: make([]uint64, distinct)}
			var reqs []protocol.Request
			rng := rand.New(rand.NewSource(1))
			vars := make([]uint64, distinct)
			for i, v := range rng.Perm(349504)[:distinct] { // M at q=2, n=7
				vars[i] = uint64(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, v := range vars {
					if k%4 == 3 {
						if p.WriteConflicts(v) {
							b.Fatal("distinct variables conflict")
						}
						p.Write(uint64(k), v, uint64(i), futs[k])
					} else {
						p.Read(uint64(k), v, futs[k])
					}
				}
				reqs = p.Requests(reqs)
				p.Complete(res, nil)
				p.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(distinct), "ns/var")
		})
	}
}
