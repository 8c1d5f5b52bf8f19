package core

import (
	"fmt"
	"slices"

	"detshmem/internal/gf"
	"detshmem/internal/pgl"
)

// ExplicitIndexer is the Section 4 / Theorem 8 variable-index bijection for
// q = 2 and n odd. Matrices are encoded as pairs ⟨α, β⟩ of elements of the
// quadratic extension F_{2^{2n}} (one per row, in the basis (w, 1) over
// F_{2^n}, w = λ^ρ a cube root of unity outside the subfield), and the M
// coset representatives are split into the four families
//
//	S₁ = { ⟨1, λ^{iσ}·w⟩ : 0 ≤ i < 2^n−1 }
//	S₂ = { ⟨1, λ^{k(s,t)}·w^j⟩ }
//	S₃ = { ⟨λ^{k(s,t)}·w^j, 1⟩ }
//	S₄ = { ⟨λ^{k(s,0)}, λ^i·w^j⟩ : 1 ≤ i < ρ, τ ∤ i,
//	       λ^{k(s,0)}·(w^j·λ^i)^{-1} ∉ F_{2^n}^* }
//
// with k(s,t) = (s + tσ) mod ρ, s ∈ [1, (2^{n-1}−1)/3], t ∈ [0, 2^n−1),
// j ∈ {0,1,2}. Theorem 8 states these are a complete set of representatives
// of PGL₂(2ⁿ)/H₀; the package's tests verify this exhaustively for n = 3, 5
// and against edge enumeration for n = 7.
//
// Decoding an index costs O(1) and divides by nothing at run time:
// closed-form arithmetic for S₁–S₃ and a periodic unranking for S₄ (the S₄
// exclusions "τ | i" and "i ≡ k(s,0) − jρ (mod σ)" are arithmetic
// progressions with period σ, so both ranking and unranking are computable in
// O(1)). Every divisor the decode meets is fixed by n, so NewExplicitIndexer
// turns each into a reciprocal (divider) and tabulates S₄'s per-(s, j) counts
// and excluded residues; every exponent the decode forms is below
// 2(2^{2n}−1), so it reads the doubled exp table without a reduction.
type ExplicitIndexer struct {
	s    *Scheme
	qd   *gf.Quad
	ext2 *gf.Ext // F_{2^{2n}}, whose exp table λ^e reads for e < 2(2^{2n}−1)

	c1   uint64 // |S₁| = 2^n − 1
	c2   uint64 // |S₂| = |S₃| = (2^n−1)(2^{n-1}−1)
	c4   uint64 // |S₄|
	c4s  uint64 // per-s block of S₄: (2^n−1)(2^n−3)
	sMax uint64 // (2^{n-1}−1)/3

	rho, sigma, tau uint64

	perS23 divider      // S₂/S₃ block per s: 3(2^n−1)
	perS4  divider      // S₄ block per s: c4s
	s4     [][3]s4Class // s4[s−1][j], s ∈ [1, sMax]
}

// s4Class describes, for one (s, j) of S₄, the admissible exponents
// {1 ≤ i < ρ : τ ∤ i, i ≢ c_j (mod σ)}, c_j = (k(s,0) − jρ) mod σ: how many
// there are, and what unrankS4 needs to find the one of a given rank. In
// every σ-period the offsets τ, 2τ and σ = 3τ are excluded, and so is c_j
// when τ ∤ c_j. An offset within a period starts at most at the period's
// admissible count (σ−3, or σ−4) and passes at most the other three
// exclusions, so it never reaches σ; skip lists those three in ascending
// order.
type s4Class struct {
	count uint64    // validS4Count(s, j, ρ−1)
	skip  [3]uint64 // τ, 2τ and c_j, ascending; ^0 in c_j's place when τ | c_j
	per   divider   // admissible offsets per period: σ−3, or σ−4 when τ ∤ c_j
}

// NewExplicitIndexer builds the Theorem 8 bijection. It requires q = 2 and
// n odd (and 2n within the field-table budget).
func NewExplicitIndexer(s *Scheme) (*ExplicitIndexer, error) {
	if s.Q != 2 || s.Deg%2 == 0 {
		return nil, errNotApplicable(s.Q, s.Deg)
	}
	qd, err := gf.NewQuad(s.Deg)
	if err != nil {
		return nil, err
	}
	n := uint(s.Deg)
	pow := uint64(1) << n // 2^n
	e := &ExplicitIndexer{
		s:     s,
		qd:    qd,
		ext2:  qd.Ext2,
		c1:    pow - 1,
		c2:    (pow - 1) * (pow/2 - 1),
		sMax:  (pow/2 - 1) / 3,
		rho:   uint64(qd.Rho),
		sigma: uint64(qd.Sigma),
		tau:   uint64(qd.Tau),
	}
	e.c4s = (pow - 1) * (pow - 3)
	e.c4 = e.sMax * e.c4s
	if got, want := e.c1+2*e.c2+e.c4, s.NumVariables; got != want {
		return nil, fmt.Errorf("core: internal: |S₁|+|S₂|+|S₃|+|S₄| = %d != M = %d", got, want)
	}
	e.perS23 = newDivider(3 * e.c1)
	e.perS4 = newDivider(e.c4s)
	e.s4 = make([][3]s4Class, e.sMax)
	for s := uint64(1); s <= e.sMax; s++ {
		var block uint64
		for j := uint64(0); j < 3; j++ {
			cl := &e.s4[s-1][j]
			cl.count = e.validS4Count(s, j, e.rho-1) // k(s,0) = s, because s ≤ sMax < ρ
			cl.skip = [3]uint64{e.tau, 2 * e.tau, ^uint64(0)}
			cl.per = newDivider(e.sigma - 3)
			if c := e.cJ(s, j); c%e.tau != 0 {
				cl.skip[2] = c
				slices.Sort(cl.skip[:])
				cl.per = newDivider(e.sigma - 4)
			}
			block += cl.count
		}
		if block != e.c4s {
			return nil, fmt.Errorf("core: internal: S₄ block of s=%d holds %d, want %d", s, block, e.c4s)
		}
	}
	return e, nil
}

// M returns the number of variables.
func (e *ExplicitIndexer) M() uint64 { return e.s.NumVariables }

// k computes k(s,t) = (s + t·σ) mod ρ for s ≤ sMax and t < 2^n−1, where
// s + tσ < 3ρ: the reduction is at most two subtractions.
func (e *ExplicitIndexer) k(s, t uint64) uint64 {
	k := s + t*e.sigma
	for k >= e.rho {
		k -= e.rho
	}
	return k
}

// lambda returns λ^x for an exponent x < 2(2^{2n}−1) = 6ρ, which every
// exponent of the four sets is (iσ + ρ < 4ρ in S₁, k + jρ < 3ρ elsewhere).
func (e *ExplicitIndexer) lambda(x uint64) uint32 { return e.ext2.ExpT(int32(x)) }

// matFromPair converts the row encoding ⟨α, β⟩ into a canonical PGL₂ matrix.
func (e *ExplicitIndexer) matFromPair(alpha, beta uint32) pgl.Mat {
	x1, y1 := e.qd.Unpair(alpha)
	x2, y2 := e.qd.Unpair(beta)
	return e.s.G.MustMake(x1, y1, x2, y2)
}

// Mat decodes variable index i into its coset representative A_i.
func (e *ExplicitIndexer) Mat(i uint64) pgl.Mat {
	if i >= e.M() {
		panic(fmt.Sprintf("core: variable index %d out of range [0,%d)", i, e.M()))
	}
	switch {
	case i < e.c1:
		// S₁: ⟨1, λ^{iσ}·w⟩ = ⟨1, λ^{iσ+ρ}⟩.
		return e.matFromPair(1, e.lambda(i*e.sigma+e.rho))
	case i < e.c1+e.c2:
		s, t, j := e.splitS23(i - e.c1)
		return e.matFromPair(1, e.lambda(e.k(s, t)+j*e.rho))
	case i < e.c1+2*e.c2:
		s, t, j := e.splitS23(i - e.c1 - e.c2)
		return e.matFromPair(e.lambda(e.k(s, t)+j*e.rho), 1)
	default:
		return e.matS4(i - e.c1 - 2*e.c2)
	}
}

// splitS23 decomposes an offset within S₂ (or S₃) into (s, t, j):
// blocks of (2^n−1)·3 per s, then 3 per t, then j.
func (e *ExplicitIndexer) splitS23(off uint64) (s, t, j uint64) {
	b, rem := e.perS23.divmod(off)
	return 1 + b, rem / 3, rem % 3
}

// matS4 decodes an offset within S₄. For fixed s and j the admissible i form
// the set {1 ≤ i < ρ : τ ∤ i, i ≢ c_j (mod σ)} with
// c_j = (k(s,0) − jρ) mod σ; the s4 table holds each set's size, and
// unrankS4 finds the i of a given rank within it.
func (e *ExplicitIndexer) matS4(off uint64) pgl.Mat {
	b, r := e.perS4.divmod(off) // b = s − 1
	cls := &e.s4[b]
	var j uint64
	for j = 0; j < 3; j++ {
		if r < cls[j].count {
			break
		}
		r -= cls[j].count
	}
	if j == 3 {
		panic("core: internal: S₄ rank exceeded per-s block")
	}
	i := e.unrankS4(&cls[j], r)
	// k(s,0) = s, because s ≤ sMax < ρ.
	return e.matFromPair(e.lambda(b+1), e.lambda(i+j*e.rho))
}

// cJ returns c_j = (k(s,0) − jρ) mod σ, the excluded residue class.
func (e *ExplicitIndexer) cJ(ks0, j uint64) uint64 {
	m := int64(ks0) - int64(j)*int64(e.rho)
	m %= int64(e.sigma)
	if m < 0 {
		m += int64(e.sigma)
	}
	return uint64(m)
}

// validS4Count counts admissible i in [1, x] for fixed (s, j): those not
// divisible by τ and not ≡ c_j (mod σ). Because σ = 3τ, an i ≡ c_j (mod σ)
// is a multiple of τ exactly when τ | c_j, in which case the congruence
// class is already excluded by the τ rule and must not be double-counted.
// The decode reads its x = ρ−1 values from the s4 table; Index calls it.
func (e *ExplicitIndexer) validS4Count(ks0, j, x uint64) uint64 {
	bad := x / e.tau
	c := e.cJ(ks0, j)
	if c%e.tau != 0 {
		bad += countCong(x, c, e.sigma)
	}
	return x - bad
}

// countCong counts i in [1, x] with i ≡ c (mod m), 0 <= c < m.
func countCong(x, c, m uint64) uint64 {
	if c == 0 {
		return x / m
	}
	if c > x {
		return 0
	}
	return (x-c)/m + 1
}

// unrankS4 finds the admissible i of rank r (0-based) in class cl in closed
// form: the exclusions repeat with period σ (σ = 3τ puts exactly three
// τ-multiples and at most one extra c_j offset in every window
// [kσ+1, kσ+σ]), so whole periods contribute a fixed count and the residual
// rank is an order statistic within one period against the sorted excluded
// offsets. O(1), and the one division, by that fixed count, is a reciprocal
// multiply — this replaces an O(log ρ) binary search whose per-probe
// counting divisions dominated decode time (S₄ holds the vast majority of the
// variables: |S₄|/M → 1 as n grows).
func (e *ExplicitIndexer) unrankS4(cl *s4Class, r uint64) uint64 {
	k, o := cl.per.divmod(r)
	o++
	// Walk o past the period's excluded offsets in increasing order; once one
	// exceeds o the rest do too (o only grows by absorbing smaller ones), so
	// the walk needs no early exit and compiles without a branch.
	for _, x := range cl.skip {
		if x <= o {
			o++
		}
	}
	return k*e.sigma + o
}

// SetSizes reports (|S₁|, |S₂|, |S₃|, |S₄|) for inspection and tests.
func (e *ExplicitIndexer) SetSizes() (uint64, uint64, uint64, uint64) {
	return e.c1, e.c2, e.c2, e.c4
}
