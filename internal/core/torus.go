package core

// The torus action. Left multiplication by g = diag(1, μ), μ ∈ F_{q^n}^*,
// permutes the modules and the variables of the scheme alike: the copy c of
// g·A lives in the module holding g·(copy c of A). For q = 2 it does more.
// Every module representative B_j of bijection 2 goes to a scalar multiple
// of another one, g·B_j ~ B_{π_g(j)}, so B_{π_g(j)}^{-1}·g·A = B_j^{-1}·A and
// every in-module offset of bijection 3 is kept. With μ = λ^σ, a generator
// of F_{2^n}^*, g also maps each Theorem 8 family onto itself: S₁'s
// ⟨1, λ^{iσ}·w⟩ goes to i+1, and S₄'s ⟨λ^s, λ^i·w^j⟩ to i+σ, the next period
// of the same (s, j) class. So the copies of variable v + Period are those
// of v, each with its module put through π_g and its offset unchanged.

// Orbit is a run of variable indices [First, First+Count) on which the
// torus acts as a shift: for every v in [First+Period, First+Count),
// variable v is g·(variable v−Period). Its first Period rows are its seeds;
// the rest follow from them. Rows outside every orbit of an indexer have
// no predecessor under g in its index order.
type Orbit struct {
	First, Count, Period uint64
}

// TorusPerm returns π_g for g = diag(1, μ): entry j is the module index of
// g·B_j. In closed form, g·(γ^s 0; 0 1) ~ (γ^s/μ 0; 0 1) and
// g·(α_t γ^s; 1 0) ~ (α_t/μ γ^s/μ; 1 0), so f(s, t) goes to
// f(log_γ(γ^s/μ), t/μ) with t = −1 kept: q^n products for the t column and
// one product and log per s, no PGL product.
// The scheme's modules must number at most 2^32.
func (s *Scheme) TorusPerm(mu uint32) []uint32 {
	f := s.F
	k := uint64(f.Order)
	muInv := f.Inv(mu)
	// Row t+1 of each s-block: the image of t = −1 stays at 0, the others
	// are t/μ + 1.
	tImg := make([]uint32, k+1)
	for t := uint64(0); t < k; t++ {
		tImg[t+1] = f.Mul(uint32(t), muInv) + 1
	}
	perm := make([]uint32, s.NumModules)
	for cs := uint64(0); cs*(k+1) < s.NumModules; cs++ {
		base := uint32(uint64(f.BaseUnitLog(f.Mul(f.Exp(int(cs)), muInv))) * (k + 1))
		for i, t := range tImg {
			perm[cs*(k+1)+uint64(i)] = base + t
		}
	}
	return perm
}

// Torus returns μ, the scalar of the torus element g = diag(1, μ), as an
// element of the scheme's field: μ = λ^σ generates F_{2^n}^*, and
// Unpair(λ^σ) = (0, μ).
func (e *ExplicitIndexer) Torus() uint32 {
	_, mu := e.qd.Unpair(e.lambda(e.sigma))
	return mu
}

// Orbits lists the runs on which the torus shifts the index, ascending and
// disjoint: S₁ as one orbit of period 1 and each S₄ (s, j) class as an
// orbit whose period is its per-period admissible count, σ−3 or σ−4 — the
// class's rank r+period is exponent i+σ when rank r is i (unrankS4). S₂ and
// S₃ lie outside every orbit.
func (e *ExplicitIndexer) Orbits() []Orbit {
	out := make([]Orbit, 0, 1+3*len(e.s4))
	out = append(out, Orbit{First: 0, Count: e.c1, Period: 1})
	first := e.c1 + 2*e.c2
	for b := range e.s4 {
		for j := range e.s4[b] {
			cl := &e.s4[b][j]
			out = append(out, Orbit{First: first, Count: cl.count, Period: cl.per.d})
			first += cl.count
		}
	}
	return out
}
