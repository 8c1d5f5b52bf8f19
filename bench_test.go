package detshmem

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"detshmem/internal/affine"
	"detshmem/internal/analysis"
	"detshmem/internal/audit"
	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/experiments"
	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/network"
	"detshmem/internal/pram"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// The benchmarks below regenerate the measured side of the paper-reproduction
// experiments in DESIGN.md's per-experiment index (E1–E14), plus the
// ablations and the micro-loops of the serving path's hot structures. Each
// bench reports domain metrics (MPC rounds, Φ) alongside ns/op. They are tools
// to profile with, not a gate: the serving path end to end is measured — and
// every PR judged — by the bench/ module (EXPERIMENTS.md E29 maps each
// serving-path family that used to live here to its workload).

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
// and the compiled table, labelled as E16's rows are.
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
			snap := fs.Snapshot()
			for m := lo; m < hi; m++ {
				fs.Certify(m, snap.RepairGen(m))
			}
		}
	})
	b.Run("api=range", func(b *testing.B) {
		fs := mpc.NewFaultSet()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs.FailRange(lo, hi)
			fs.RecoverPendingRange(lo, hi)
			snap := fs.Snapshot()
			mods, gens = snap.AppendRepairing(mods[:0]), gens[:0]
			for _, m := range mods {
				gens = append(gens, snap.RepairGen(m))
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
			cfg.NewMachine = func(mcfg mpc.Config) (protocol.Machine, error) {
				return mpc.NewFailingShared(mcfg, fs)
			}
			sys, err := protocol.NewSystem(s, idx, cfg)
			if err != nil {
				b.Fatal(err)
			}
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
// backend behind it, as the shard flusher pays it: admit a window of ops (a
// write after a read of its variable joins it as one read-write request),
// hand over the batch admission built, write a result into every op's future
// and reset. distinct=64 is a client window
// and distinct=4096 a PRAM step, every fourth op a write, timed per
// variable; hotspot=64 is a client window over 16 hot variables at p=0.85
// with 40 % writes, so many futures wait on each request, timed per op.
func BenchmarkPendingCycle(b *testing.B) {
	const m = 349504 // M at q=2, n=7
	type op struct {
		write bool
		v     uint64
	}
	type shape struct {
		name, unit string
		ops        []op
	}
	rng := rand.New(rand.NewSource(1))
	var shapes []shape
	for _, distinct := range []int{64, 4096} {
		sh := shape{name: fmt.Sprintf("distinct=%d", distinct), unit: "ns/var"}
		for k, v := range rng.Perm(m)[:distinct] {
			sh.ops = append(sh.ops, op{k%4 == 3, uint64(v)})
		}
		shapes = append(shapes, sh)
	}
	hot := shape{name: "hotspot=64", unit: "ns/client-op"}
	for _, v := range workload.HotSpot(rng, m, 64, 16, 0.85) {
		hot.ops = append(hot.ops, op{rng.Intn(10) < 4, v})
	}
	shapes = append(shapes, hot)
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			p := frontend.NewPending(len(sh.ops))
			futs := make([]*frontend.Future, len(sh.ops))
			for i := range futs {
				futs[i] = new(frontend.Future)
			}
			res := &protocol.Result{Values: make([]uint64, len(sh.ops))}
			flush := func() {
				p.Complete(res, nil)
				p.Reset()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, o := range sh.ops {
					if o.write {
						p.Write(uint64(k), o.v, uint64(i), futs[k])
					} else {
						p.Read(uint64(k), o.v, futs[k])
					}
				}
				flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sh.ops)), sh.unit)
		})
	}
}
