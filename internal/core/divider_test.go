package core

import (
	"math"
	"math/rand"
	"testing"
)

// checkDivmod fails t unless the divider by d returns exactly x / d and x % d.
func checkDivmod(t *testing.T, dv divider, x uint64) {
	t.Helper()
	q, r := dv.divmod(x)
	if q != x/dv.d || r != x%dv.d {
		t.Fatalf("divmod(%d) by %d = (%d, %d), want (%d, %d)", x, dv.d, q, r, x/dv.d, x%dv.d)
	}
}

// TestDividerExact checks the reciprocal divider against the hardware divide
// at the edges of its range: divisors 1, 2, 3, the σ−4 of q=2 n=9, either
// side of 2³², 2⁶³+1 and 2⁶⁴−1; numerators 0, 1, d−1, d, d+1, either side of
// multiples of d up to the top of the range, 2⁶⁴−1, and random values.
func TestDividerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range []uint64{1, 2, 3, 509, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 + 1, math.MaxUint64} {
		dv := newDivider(d)
		xs := []uint64{0, 1, d - 1, d, d + 1, math.MaxUint64, math.MaxUint64 - 1}
		top := math.MaxUint64 / d
		for _, k := range []uint64{2, 3, 1000, top / 2, top - 1, top} {
			if k < 2 || k > top {
				continue
			}
			xs = append(xs, k*d-1, k*d)
			if k*d+1 > k*d {
				xs = append(xs, k*d+1)
			}
		}
		for i := 0; i < 10000; i++ {
			xs = append(xs, rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
		}
		for _, x := range xs {
			checkDivmod(t, dv, x)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("newDivider(0) did not panic")
		}
	}()
	newDivider(0)
}

// FuzzDivider checks divmod against / and % for any divisor and numerator.
func FuzzDivider(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(3), uint64(math.MaxUint64))
	f.Add(uint64(509), uint64(22369535))
	f.Add(uint64(1<<63+1), uint64(math.MaxUint64))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64-1))
	f.Fuzz(func(t *testing.T, d, x uint64) {
		if d == 0 {
			return
		}
		checkDivmod(t, newDivider(d), x)
		// The largest multiple of d and the numerator below it: the quotient
		// estimate's shortfall grows with x, so the correction runs most
		// often near the top of the range.
		top := d * (math.MaxUint64 / d)
		checkDivmod(t, newDivider(d), top)
		checkDivmod(t, newDivider(d), top-1)
	})
}
