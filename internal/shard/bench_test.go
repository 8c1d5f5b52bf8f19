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
// distinct is a PRAM step, a window of 4096 distinct variables. 40 % of the
// ops are writes.
func BenchmarkServiceWindow(b *testing.B) {
	m := testMapper(b, 7)
	for _, shape := range []struct {
		name   string
		window int
		vars   func(rng *rand.Rand, k int) []uint64
	}{
		{"hotspot-64", 64, func(rng *rand.Rand, k int) []uint64 {
			return workload.HotSpot(rng, m.NumVars(), k, 16, 0.85)
		}},
		{"distinct-4096", 4096, func(rng *rand.Rand, k int) []uint64 {
			return workload.DistinctRandom(rng, m.NumVars(), k)
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
				for _, v := range shape.vars(rng, shape.window) {
					op := BatchOp{Var: v}
					if rng.Intn(10) < 4 {
						op = BatchOp{Write: true, Var: v, Val: rng.Uint64()}
					}
					windows[w] = append(windows[w], op)
				}
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
