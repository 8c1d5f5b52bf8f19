package gf

import (
	"math/rand"
	"testing"
)

func benchExt(b *testing.B, m, n int) *Ext {
	b.Helper()
	e, err := NewExt(m, n)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkExtMul(b *testing.B) {
	e := benchExt(b, 1, 9)
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint32, 1024)
	for i := range xs {
		xs[i] = uint32(rng.Intn(int(e.Order)))
	}
	b.ResetTimer()
	var acc uint32 = 1
	for i := 0; i < b.N; i++ {
		acc = e.Mul(acc|1, xs[i&1023]|1)
	}
	_ = acc
}

func BenchmarkExtInv(b *testing.B) {
	e := benchExt(b, 1, 9)
	for i := 0; i < b.N; i++ {
		_ = e.Inv(uint32(i)%(e.Order-1) + 1)
	}
}

func BenchmarkExtLog(b *testing.B) {
	e := benchExt(b, 1, 9)
	for i := 0; i < b.N; i++ {
		_ = e.Log(uint32(i)%(e.Order-1) + 1)
	}
}

func BenchmarkNewExt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewExt(1, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewQuad is large-zipf's field set-up: NewQuad(9) searches the
// degree-2 moduli over GF(2^9) and builds the 2^18-entry tables of the
// accepted one.
func BenchmarkNewQuad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewQuad(9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuadPairUnpair(b *testing.B) {
	q, err := NewQuad(9)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		x, y := q.Unpair(uint32(i)%(q.Ext2.Order-1) + 1)
		_ = q.Pair(x, y)
	}
}

// Batch-kernel micro-benchmarks: per-element cost of the vectorized forms vs
// the scalar loops they replace, so kernel regressions show up in benchstat
// directly rather than only through end-to-end resolution numbers.

func benchVecOperands(b *testing.B, e *Ext) ([]uint32, []uint32, []uint32) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	xs := make([]uint32, 1024)
	ys := make([]uint32, 1024)
	for i := range xs {
		xs[i] = uint32(rng.Intn(int(e.Order)-1)) + 1
		ys[i] = uint32(rng.Intn(int(e.Order)-1)) + 1
	}
	return xs, ys, make([]uint32, 1024)
}

func BenchmarkMulScalarVec(b *testing.B) {
	e := benchExt(b, 1, 9)
	xs, _, dst := benchVecOperands(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MulScalarVec(dst, xs, 7)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
}

func BenchmarkMulScalarLoop(b *testing.B) {
	e := benchExt(b, 1, 9)
	xs, _, dst := benchVecOperands(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range xs {
			dst[j] = e.Mul(x, 7)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
}

func BenchmarkMulVec(b *testing.B) {
	e := benchExt(b, 1, 9)
	xs, ys, dst := benchVecOperands(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MulVec(dst, xs, ys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
}

func BenchmarkPowVec(b *testing.B) {
	e := benchExt(b, 1, 9)
	xs, _, dst := benchVecOperands(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PowVec(dst, xs, 13)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
}

func BenchmarkFrobVec(b *testing.B) {
	e := benchExt(b, 1, 9)
	xs, _, dst := benchVecOperands(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FrobVec(dst, xs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
}

func BenchmarkBaseUnitLogVec(b *testing.B) {
	e := benchExt(b, 1, 9)
	xs, _, dst := benchVecOperands(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BaseUnitLogVec(dst, xs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/elem")
}
