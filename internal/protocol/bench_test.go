package protocol

import (
	"math/rand"
	"testing"
)

// BenchmarkAccessInto is the protocol layer alone at two shapes of the core
// suite (bench/ has no profile flag, so this is the loop to profile): q=2 n=7
// over the compiled table, 40 % writes, and fresh variables in every batch so
// the table rows and the cells miss the caches as they do under the suite's
// traffic. pram-step issues windows of 4096 distinct variables; small-uniform
// flushes batches of about 100. Each shape runs twice: over the plain MPC,
// where a phase's first round is played in place against the machine's claim
// table (firstRound), and as <shape>-generic over the same machine wrapped so
// the protocol does not find it, where every round takes the generic path.
// The suite's traced runs wrap the machine too, so this pair is where the
// fused round's share is measured.
func BenchmarkAccessInto(b *testing.B) {
	base := newSystem(b, 1, 7, Config{})
	table := compileTable(b, base.Mapper)
	for _, shape := range []struct {
		name string
		size int
	}{{"pram-step", 4096}, {"small-uniform", 100}} {
		// A ring of batches much larger than the caches: 2¹⁹ requests over
		// the 349 504 variables.
		rng := rand.New(rand.NewSource(1))
		nv := base.Mapper.NumVars()
		batches := make([][]Request, (1<<19)/shape.size)
		for i := range batches {
			seen := make(map[uint64]bool, shape.size)
			for len(batches[i]) < shape.size {
				v := rng.Uint64() % nv
				if seen[v] {
					continue
				}
				seen[v] = true
				rq := Request{Var: v}
				if rng.Intn(100) < 40 {
					rq.Op, rq.Value = Write, rng.Uint64()
				}
				batches[i] = append(batches[i], rq)
			}
		}
		for _, variant := range []struct {
			suffix string
			cfg    Config
		}{{"", Config{Resolver: table}}, {"-generic", Config{Resolver: table, NewMachine: genericMachine}}} {
			b.Run(shape.name+variant.suffix, func(b *testing.B) {
				sys, err := NewGenericSystem(base.Mapper, variant.cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer sys.Close()
				var res Result
				for _, reqs := range batches { // warm the scratch and fault the store in
					if err := sys.AccessInto(reqs, &res); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sys.AccessInto(batches[i%len(batches)], &res); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.size), "ns/req")
			})
		}
	}
}
