package core

import (
	"fmt"

	"detshmem/internal/gf"
)

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

// TorusAction is the module map of the powers of g = diag(1, μ) in a q = 2
// scheme. g^k = diag(1, γ^e) with e = k·log_γ μ mod (2^n−1), and dividing
// g^k·B_j by γ^e gives g^k·(γ^s 0; 0 1) ~ (γ^{s−e} 0; 0 1) and
// g^k·(α_t γ^s; 1 0) ~ (α_t·γ^{−e} γ^{s−e}; 1 0): the module of coset key
// (s, t) goes to (s − e mod (2^n−1), t·γ^{−e}), so t = −1 and t = 0 stay.
// Every in-module offset stays too (see above), so the copies of g^k·A are
// those of A with each module moved by the map.
type TorusAction struct {
	f     *gf.Ext
	ord   int32   // 2^n − 1
	logMu uint64  // log_γ μ
	red   divider // by 2^n − 1
}

// TorusAction returns the action of the powers of g = diag(1, μ). The scheme
// must have q = 2, whose module keys s are logs to base γ, and μ must be
// nonzero.
func (s *Scheme) TorusAction(mu uint32) *TorusAction {
	if s.Q != 2 || mu == 0 {
		panic(fmt.Sprintf("core: torus action of μ=%d on a q=%d scheme", mu, s.Q))
	}
	ord := uint64(s.F.Order) - 1
	return &TorusAction{f: s.F, ord: int32(ord), logMu: uint64(s.F.Log(mu)), red: newDivider(ord)}
}

// Exponent returns e = k·log_γ μ mod (2^n−1), the exponent g^k moves module
// keys by, for a power k < 2^n−1.
func (a *TorusAction) Exponent(k uint64) int32 {
	_, e := a.red.divmod(k * a.logMu)
	return int32(e)
}

// Key returns the coset key of the module g^k sends the module of key
// (cs, ct) to, given e = Exponent(k): (cs − e mod (2^n−1), ct·γ^{−e}). It
// is one log and one exp read when ct is a nonzero field element, none
// when ct is −1 or 0.
func (a *TorusAction) Key(cs uint32, ct, e int32) (uint32, int32) {
	s := int32(cs) - e
	if s < 0 {
		s += a.ord
	}
	if ct > 0 {
		ct = int32(a.f.ExpT(a.f.LogT(uint32(ct)) - e + a.ord)) // exponent ∈ (0, 2·ord)
	}
	return uint32(s), ct
}

// TorusPerm returns π_g for g = diag(1, μ), the k = 1 case of the torus
// action: entry j is the module index of g·B_j. The scheme must have q = 2.
func (s *Scheme) TorusPerm(mu uint32) []uint32 {
	a := s.TorusAction(mu)
	e := a.Exponent(1)
	k1 := uint64(s.F.Order) + 1
	perm := make([]uint32, s.NumModules)
	for j := range perm {
		cs, ct := a.Key(uint32(uint64(j)/k1), int32(uint64(j)%k1)-1, e)
		perm[j] = uint32(uint64(cs)*k1 + uint64(ct+1))
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
// S₃ lie outside every orbit: g moves their index by a wrap-dependent step,
// and TorusLift is how they derive.
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

// TorusSeed is one seed of the torus lift of S₁–S₃, which lie outside every
// orbit of the table's index order but are orbits of g all the same: S₁'s i
// is g^i·(variable 0), S₂'s (s, t, j) is g^t·(s, 0, j₀) and S₃'s (s, t, j)
// is g^{−t}·(s, 0, j₀). Left multiplication by g^t multiplies the second row
// ⟨1, λ^s·w^{j₀}⟩ by μ^t = λ^{tσ}, and λ^{s+tσ} = λ^{k(s,t)}·w^{⌊(s+tσ)/ρ⌋}
// since λ^ρ = w; so j₀ = (j − ⌊(s+tσ)/ρ⌋) mod 3. S₃ is the same with the
// rows swapped, ⟨λ^s·w^{j₀}, μ^{−t}⟩ ~ ⟨λ^{s+tσ}·w^{j₀}, 1⟩. The 1 + 6·sMax
// seeds stand for all 2^n−1 + 2·|S₂| variables of the three families.
type TorusSeed struct {
	Var uint64 // the seed: variable 0 of S₁, or (s, 0, j₀) of S₂ or S₃
	End uint64 // its orbit's far end: i = 2^n−2 of S₁, or t = 2^n−2 of S₂ or S₃
}

// TorusSeeds lists the seeds in the slot order TorusLift names them by: S₁'s
// variable 0, then S₂'s (s, 0, j₀) and S₃'s, each s-major and j₀-minor.
func (e *ExplicitIndexer) TorusSeeds() []TorusSeed {
	out := make([]TorusSeed, 0, 1+6*e.sMax)
	out = append(out, TorusSeed{Var: 0, End: e.c1 - 1})
	last := e.c1 - 1 // t = 2^n−2
	for _, base := range []uint64{e.c1, e.c1 + e.c2} {
		for s := uint64(1); s <= e.sMax; s++ {
			for j0 := uint64(0); j0 < 3; j0++ {
				out = append(out, TorusSeed{
					Var: base + e.rankS23(s, 0, j0),
					End: base + e.rankS23(s, last, (j0+e.wraps(s, last))%3),
				})
			}
		}
	}
	return out
}

// TorusLift returns, for a variable v of S₁–S₃, the slot in TorusSeeds of
// its seed and the power k < 2^n−1 with v = g^k·seed (TorusSeed). ok is
// false for S₄ and beyond. It divides by nothing at run time: S₂ and S₃
// split by the perS23 divider.
func (e *ExplicitIndexer) TorusLift(v uint64) (slot int, k uint64, ok bool) {
	switch {
	case v < e.c1:
		return 0, v, true
	case v < e.c1+e.c2:
		s, t, j := e.splitS23(v - e.c1)
		return int(3*(s-1) + e.seedJ(s, t, j) + 1), t, true
	case v < e.c1+2*e.c2:
		s, t, j := e.splitS23(v - e.c1 - e.c2)
		k = e.c1 - t // g^{−t}
		if t == 0 {
			k = 0
		}
		return int(3*(e.sMax+s-1) + e.seedJ(s, t, j) + 1), k, true
	}
	return 0, 0, false
}

// wraps returns ⌊(s + tσ)/ρ⌋ ∈ {0, 1, 2}, the power of w that k(s, t) drops.
func (e *ExplicitIndexer) wraps(s, t uint64) uint64 {
	k, w := s+t*e.sigma, uint64(0)
	for k >= e.rho {
		k -= e.rho
		w++
	}
	return w
}

// seedJ returns j₀ = (j − ⌊(s + tσ)/ρ⌋) mod 3, the j of (s, t, j)'s seed.
func (e *ExplicitIndexer) seedJ(s, t, j uint64) uint64 {
	j0 := j + 3 - e.wraps(s, t)
	if j0 >= 3 {
		j0 -= 3
	}
	return j0
}
