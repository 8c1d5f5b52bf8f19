package shard

import (
	"math/rand"
	"testing"

	"detshmem/internal/workload"
)

// BenchmarkServiceWindow is one client's serving loop at S=1 over the q=2
// n=7 scheme, as the benchmark suite's clients run it — AccessBatch, Wait,
// then Value for every op — so admission, combining, the protocol and
// completion are measured together, per op and per allocation. hotspot is a
// window of 64 over 16 hot variables at p=0.85 (many waiters per request);
// distinct is a PRAM step, a window of 4096 distinct variables; in both 40 %
// of the ops are writes. readwrite is a window of 32 reads of hot variables,
// each followed by a write of the same variable — every write joins its
// read as one ReadWrite request.
func BenchmarkServiceWindow(b *testing.B) {
	m := testMapper(b, 7)
	mixed := func(vars []uint64, rng *rand.Rand) []BatchOp {
		ops := make([]BatchOp, len(vars))
		for i, v := range vars {
			ops[i] = BatchOp{Var: v}
			if rng.Intn(10) < 4 {
				ops[i] = BatchOp{Write: true, Var: v, Val: rng.Uint64()}
			}
		}
		return ops
	}
	for _, shape := range []struct {
		name   string
		window int
		ops    func(rng *rand.Rand) []BatchOp
	}{
		{"hotspot-64", 64, func(rng *rand.Rand) []BatchOp {
			return mixed(workload.HotSpot(rng, m.NumVars(), 64, 16, 0.85), rng)
		}},
		{"distinct-4096", 4096, func(rng *rand.Rand) []BatchOp {
			return mixed(workload.DistinctRandom(rng, m.NumVars(), 4096), rng)
		}},
		{"readwrite-64", 64, func(rng *rand.Rand) []BatchOp {
			var ops []BatchOp
			for _, v := range workload.HotSpot(rng, m.NumVars(), 32, 16, 0.85) {
				ops = append(ops, BatchOp{Var: v}, BatchOp{Write: true, Var: v, Val: rng.Uint64()})
			}
			return ops
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			svc, err := New(m, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			rng := rand.New(rand.NewSource(1))
			windows := make([][]BatchOp, 16)
			for w := range windows {
				windows[w] = shape.ops(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops := windows[i%len(windows)]
				bt, err := svc.AccessBatch(ops)
				if err != nil {
					b.Fatal(err)
				}
				if err := bt.Wait(); err != nil {
					b.Fatal(err)
				}
				for k := range ops {
					if _, err := bt.Value(k); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.window), "ns/client-op")
		})
	}
}
