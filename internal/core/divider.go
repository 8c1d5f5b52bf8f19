package core

import "math/bits"

// divider divides by a divisor fixed when it is built, with a multiply by a
// precomputed reciprocal in place of a hardware divide (Granlund and
// Montgomery, PLDI 1994; Lemire, Kaser and Kurz, 2019). With
// m = ⌊(2⁶⁴−1)/d⌋, the high word of m·x is ⌊x/d⌋ or one less for every
// 64-bit x: writing 2⁶⁴−1 = m·d + e with e < d, m·x/2⁶⁴ falls short of x/d
// by x(1+e)/(d·2⁶⁴) < 1. One conditional correction makes the quotient and
// the remainder exact, so no numerator needs a fallback.
type divider struct {
	d, m uint64
}

// newDivider returns the divider by d, which must be positive.
func newDivider(d uint64) divider {
	if d == 0 {
		panic("core: internal: divider by zero")
	}
	return divider{d: d, m: ^uint64(0) / d}
}

// divmod returns x / d and x % d.
func (v divider) divmod(x uint64) (q, r uint64) {
	q, _ = bits.Mul64(v.m, x)
	r = x - q*v.d
	if r >= v.d {
		q++
		r -= v.d
	}
	return q, r
}
