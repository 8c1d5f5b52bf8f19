package core

import (
	"detshmem/internal/pgl"
)

// Index inverts the Theorem 8 bijection: given any representative m of a
// variable coset, it returns the variable's index. The coset m·H₀ contains
// |H₀| = 6 projective matrices (q = 2); exactly one of them matches one of
// the S₁–S₄ patterns, and the match is recognized algebraically:
// under the ⟨α, β⟩ row encoding, a projective scaling multiplies both α and
// β by the same element of F_{2^n}^*, so
//
//	S₁/S₂ require α ∈ F_{2^n}^* and classify by log_λ(β/α);
//	S₃ requires β ∈ F_{2^n}^* and classifies by log_λ(α/β);
//	S₄ requires log_λ(α) ≡ s (mod σ) for an admissible s and classifies
//	    the rescaled β exponent as i + jρ.
//
// Total cost is O(1) discrete logs and arithmetic per coset element —
// O(log N) overall, matching the paper's address-computation budget.
func (e *ExplicitIndexer) Index(m pgl.Mat) (uint64, bool) {
	for _, h := range e.s.G.H0Elements() {
		if i, ok := e.classify(e.s.G.Mul(m, h)); ok {
			return i, true
		}
	}
	return 0, false
}

// classify tests whether the specific projective matrix m (not its whole
// coset) lies in S₁ ∪ S₂ ∪ S₃ ∪ S₄ and returns its index if so.
func (e *ExplicitIndexer) classify(m pgl.Mat) (uint64, bool) {
	qd := e.qd
	f2 := qd.Ext2
	alpha := qd.Pair(m.A, m.B)
	beta := qd.Pair(m.C, m.D)
	// Nonsingular matrices have no zero row, so alpha, beta != 0.
	ord := uint64(f2.Order) - 1
	la := uint64(f2.Log(alpha))
	lb := uint64(f2.Log(beta))

	if qd.InSubfield(alpha) { // α can be rescaled to 1: S₁ or S₂ patterns
		eRatio := (lb + ord - la) % ord
		// S₁: β/α = λ^{iσ+ρ} with iσ + ρ < ord + ρ and iσ < ord exactly.
		if d := (eRatio + ord - uint64(qd.Rho)) % ord; d%uint64(qd.Sigma) == 0 {
			if i := d / uint64(qd.Sigma); i < e.c1 {
				return i, true
			}
		}
		// S₂: β/α = λ^{k(s,t)+jρ} (exact: k + jρ < 3ρ = ord).
		if s, t, j, ok := e.invertK(eRatio); ok {
			return e.c1 + e.rankS23(s, t, j), true
		}
		return 0, false
	}
	if qd.InSubfield(beta) { // β rescales to 1: S₃ pattern
		eRatio := (la + ord - lb) % ord
		if s, t, j, ok := e.invertK(eRatio); ok {
			return e.c1 + e.c2 + e.rankS23(s, t, j), true
		}
		return 0, false
	}
	// S₄: need s ≡ log α (mod σ) with 1 <= s <= sMax; then the common
	// rescaling by λ^{s}/α pins β's exponent to i + jρ.
	s := la % uint64(qd.Sigma)
	if s < 1 || s > e.sMax {
		return 0, false
	}
	e2 := (lb + s + ord - la) % ord
	j := e2 / e.rho
	i := e2 % e.rho
	if i == 0 || i%e.tau == 0 {
		return 0, false
	}
	ks0 := e.k(s, 0) // equals s for s <= sMax < ρ, kept explicit for clarity
	if e.cJ(ks0, j) == i%e.sigma {
		// The excluded subfield-ratio case: this matrix is singular-adjacent
		// in the construction and not an S₄ member.
		return 0, false
	}
	rank := (s-1)*e.c4s + e.validS4Count(ks0, j, i) - 1
	for jj := uint64(0); jj < j; jj++ {
		rank += e.s4[s-1][jj].count
	}
	return e.c1 + 2*e.c2 + rank, true
}

// rankS23 is the position of (s, t, j) within S₂'s (or S₃'s) ordering.
func (e *ExplicitIndexer) rankS23(s, t, j uint64) uint64 {
	return (s-1)*e.c1*3 + t*3 + j
}

// invertK decomposes eRatio = k(s,t) + jρ into valid (s, t, j), exploiting
// that s + tσ is the base-σ representation (s < σ) and that the admissible
// ranges make the decomposition unique.
func (e *ExplicitIndexer) invertK(eRatio uint64) (s, t, j uint64, ok bool) {
	j = eRatio / e.rho
	k := eRatio % e.rho
	nPow := e.c1 + 1 // 2^n
	for delta := uint64(0); delta < 3; delta++ {
		val := k + delta*e.rho
		s = val % e.sigma
		t = val / e.sigma
		if s >= 1 && s <= e.sMax && t < nPow-1 {
			return s, t, j, true
		}
	}
	return 0, 0, 0, false
}
