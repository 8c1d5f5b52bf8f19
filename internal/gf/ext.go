package gf

import "fmt"

// Ext is the extension field F_{q^n} over a base field F_q = GF(2^m),
// represented as polynomials in a primitive element γ:
//
//	F_{q^n} = { a_0 + a_1·γ + … + a_{n-1}·γ^{n-1} : a_i ∈ F_q }
//
// exactly as in Section 2.1 of the paper. A packed element stores coefficient
// a_i in bits [i·m, (i+1)·m). γ itself is the class of the indeterminate, so
// the coordinates of an element in the basis (1, γ, …, γ^{n-1}) are read off
// the packed representation directly; this is what makes the paper's set
//
//	P_γ = { Σ_{i≥1} a_i γ^i }   (polynomials with zero constant term)
//
// trivially recognizable and indexable.
//
// Multiplication uses full exp/log tables over the whole extension field
// (the modulus polynomial is primitive, so γ generates F_{q^n}^*).
type Ext struct {
	Base *Field // the base field F_q
	N    int    // extension degree over the base
	Q    uint32 // base order q = Base.Order

	Order   uint32   // q^n
	Modulus []uint32 // monic primitive polynomial over F_q, len n+1, Modulus[n] = 1

	bits uint // m: bits per coefficient
	mask uint32

	exp []uint32
	log []int32
}

// NewExt constructs F_{q^n} with q = 2^m. It searches for a primitive monic
// degree-n polynomial over F_q (seeded by the GF(2) table when m == 1) and
// builds discrete-log tables for the full extension field. m·n must not
// exceed MaxBits.
func NewExt(m, n int) (*Ext, error) {
	if n < 2 {
		return nil, fmt.Errorf("gf: extension degree n=%d must be >= 2", n)
	}
	if m*n > MaxBits {
		return nil, fmt.Errorf("gf: field GF(2^%d) exceeds the %d-bit table budget", m*n, MaxBits)
	}
	base, err := NewField(m)
	if err != nil {
		return nil, err
	}
	e := &Ext{
		Base:  base,
		N:     n,
		Q:     base.Order,
		Order: 1 << uint(m*n),
		bits:  uint(m),
		mask:  base.Order - 1,
	}
	if m == 1 {
		// F_2 case: the binary primitive-polynomial table gives the modulus
		// directly (coefficients are single bits).
		p := primitivePoly2[n]
		e.Modulus = make([]uint32, n+1)
		for i := 0; i <= n; i++ {
			e.Modulus[i] = (p >> uint(i)) & 1
		}
		if !e.buildTables(make([]uint32, 2)) {
			return nil, fmt.Errorf("gf: tabled polynomial %#x of degree %d is not primitive", p, n)
		}
		return e, nil
	}
	if err := e.searchModulus(); err != nil {
		return nil, err
	}
	return e, nil
}

// searchModulus scans monic degree-n polynomials over F_q until one is
// primitive. Primitivity is established as a byproduct of table building:
// the polynomial is primitive iff repeated multiplication by γ enumerates
// all q^n − 1 nonzero elements before returning to 1. A rejected candidate
// costs the orbit it walked (buildTables undoes only that), so the search is
// not a full-table fill per candidate. The scan order is fixed: the first
// primitive candidate wins, and TestModulusSearchPinned pins the result.
func (e *Ext) searchModulus() error {
	n := e.N
	// Iterate lower coefficients (a_0 … a_{n-1}) as a packed integer. The
	// constant term must be nonzero for irreducibility, and primitive
	// polynomials are dense, so this terminates quickly in practice.
	total := uint64(1) << uint(int(e.bits)*n)
	red := make([]uint32, e.Q)
	e.Modulus = make([]uint32, n+1)
	e.Modulus[n] = 1
	for c := uint64(1); c < total; c++ {
		if uint32(c)&e.mask == 0 {
			continue // zero constant term: divisible by γ
		}
		for i := 0; i < n; i++ {
			e.Modulus[i] = uint32(c>>(uint(i)*e.bits)) & e.mask
		}
		if e.buildTables(red) {
			return nil
		}
	}
	return fmt.Errorf("gf: no primitive degree-%d polynomial found over GF(%d)", n, e.Q)
}

// buildTables walks the powers of γ under the current modulus, filling the
// exp and log tables, and reports whether the modulus is primitive (γ of
// order q^n − 1). The log table is filled with −1 once, at allocation; a
// rejected candidate resets only the entries its own orbit wrote, so the
// search pays per candidate for the orbit it walked, not for the whole
// field. red is scratch of at least q entries.
func (e *Ext) buildTables(red []uint32) bool {
	n := int(e.Order) - 1
	if e.exp == nil {
		e.exp = make([]uint32, 2*n)
		e.log = make([]int32, e.Order)
		for i := range e.log {
			e.log[i] = -1
		}
	}
	// Multiplying by γ shifts the coefficients up one slot and folds the
	// carried-out coefficient c of γ^n back in as c·(modulus − γ^n) — in
	// characteristic 2, c times the modulus's lower coefficients — read from
	// red[c]. The fold is GF(2)-linear in c, so only the m single-bit
	// entries are multiplied out; every other entry XORs two earlier ones.
	red = red[:e.Q]
	red[0] = 0
	for c := uint32(1); c < e.Q; c++ {
		low := c & -c
		if c != low {
			red[c] = red[low] ^ red[c^low]
			continue
		}
		red[c] = 0
		for i, mi := range e.Modulus[:e.N] {
			red[c] ^= e.Base.Mul(c, mi) << (uint(i) * e.bits)
		}
	}
	top := uint(e.N-1) * e.bits
	a := uint32(1)
	for i := 0; i < n; i++ {
		if e.log[a] != -1 {
			e.clearOrbit(i) // γ^i repeats an earlier power: order i < q^n − 1
			return false
		}
		e.exp[i] = a
		e.log[a] = int32(i)
		a = (a<<e.bits)&(e.Order-1) ^ red[a>>top]
	}
	if a != 1 {
		e.clearOrbit(n)
		return false
	}
	copy(e.exp[n:], e.exp[:n])
	return true
}

// clearOrbit resets the log entries of γ^0 … γ^{k-1}, the ones a rejected
// candidate wrote, so the log table is all −1 again for the next candidate.
func (e *Ext) clearOrbit(k int) {
	for _, a := range e.exp[:k] {
		e.log[a] = -1
	}
}

// Add returns a+b.
func (e *Ext) Add(a, b uint32) uint32 { return a ^ b }

// Mul returns a·b.
func (e *Ext) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return e.exp[e.log[a]+e.log[b]]
}

// Inv returns a^{-1}, panicking on zero (always a caller bug here).
func (e *Ext) Inv(a uint32) uint32 {
	if a == 0 {
		panic("gf: inverse of zero in extension field")
	}
	// With n = Order−1 and log a ∈ [0, n), the index n − log a is in [1, n],
	// inside the doubled table: no reduction.
	return e.exp[int32(e.Order)-1-e.log[a]]
}

// Div returns a/b.
func (e *Ext) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("gf: division by zero in extension field")
	}
	if a == 0 {
		return 0
	}
	// With n = Order−1, the index log a − log b + n is in [1, 2n−1], inside
	// the doubled table: no reduction.
	return e.exp[e.log[a]-e.log[b]+int32(e.Order)-1]
}

// Pow returns a^k for k >= 0 (with 0^0 = 1).
func (e *Ext) Pow(a uint32, k int) uint32 {
	if k == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	n := int64(e.Order) - 1
	return e.exp[int64(e.log[a])*int64(k)%n]
}

// Exp returns γ^i for any i >= 0.
func (e *Ext) Exp(i int) uint32 { return e.exp[i%(int(e.Order)-1)] }

// Log returns the discrete logarithm of a to base γ, or -1 for a == 0.
// This is the primitive the Section 4 address computation relies on
// ("let x = γ^r …"); with full tables it is O(1).
func (e *Ext) Log(a uint32) int { return int(e.log[a]) }

// LogT returns the raw log-table entry of a: log_γ(a) in [0, Order−1) for
// nonzero a, −1 for zero. Exported for fused log-domain kernels that hoist
// logs across several uses and handle zeros themselves; everyone else should
// use Log.
func (e *Ext) LogT(a uint32) int32 { return e.log[a] }

// ExpT returns γ^i for i in [0, 2(Order−1)): a raw read of the doubled
// exponent table Mul uses internally, exported so fused log-domain kernels
// can add two reduced exponents without a modular reduction. The argument
// must already be range-reduced; use Exp when it is not.
func (e *Ext) ExpT(i int32) uint32 { return e.exp[i] }

// Gamma returns the primitive element γ (the class of the indeterminate).
func (e *Ext) Gamma() uint32 { return 1 << e.bits }

// Coeff returns the coefficient of γ^i in a, as a base-field element.
func (e *Ext) Coeff(a uint32, i int) uint32 {
	return (a >> (uint(i) * e.bits)) & e.mask
}

// FromCoeffs packs base-field coefficients (low degree first) into an element.
func (e *Ext) FromCoeffs(cs []uint32) uint32 {
	var a uint32
	for i, c := range cs {
		a |= (c & e.mask) << (uint(i) * e.bits)
	}
	return a
}

// InBase reports whether a lies in the base field F_q embedded as the
// constant polynomials. Because coordinates are explicit in the packing,
// this is a single comparison.
func (e *Ext) InBase(a uint32) bool { return a < e.Q }

// ConstTerm returns the constant coefficient a_0 of a.
func (e *Ext) ConstTerm(a uint32) uint32 { return a & e.mask }

// InP reports whether a belongs to P_γ (zero constant term).
func (e *Ext) InP(a uint32) bool { return a&e.mask == 0 }

// ClearConst strips the constant coefficient, projecting a onto P_γ.
func (e *Ext) ClearConst(a uint32) uint32 { return a &^ e.mask }

// PElem returns p_k, the k-th element of P_γ in the canonical enumeration
// (coefficients of γ…γ^{n-1} read as an integer base q). 0 <= k < q^{n-1}.
func (e *Ext) PElem(k uint32) uint32 { return k << e.bits }

// PIndex is the inverse of PElem. The argument must be in P_γ.
func (e *Ext) PIndex(p uint32) uint32 { return p >> e.bits }

// PSize returns |P_γ| = q^{n-1}.
func (e *Ext) PSize() uint32 { return e.Order >> e.bits }

// UnitGroupIndex returns (q^n−1)/(q−1), the index of F_q^* in F_{q^n}^*.
// The module cosets of the scheme are parameterized by residues mod this
// quantity.
func (e *Ext) UnitGroupIndex() uint32 {
	return (e.Order - 1) / (e.Q - 1)
}

// BaseUnitLog reports, for nonzero a, the residue log_γ(a) mod
// (q^n−1)/(q−1). Two nonzero elements generate the same coset of F_q^*
// exactly when these residues agree (F_q^* is the subgroup of index
// UnitGroupIndex in the cyclic group F_{q^n}^*).
func (e *Ext) BaseUnitLog(a uint32) uint32 {
	return uint32(e.Log(a)) % e.UnitGroupIndex()
}

// Elements returns the number of packed values, q^n (elements are exactly
// the values in [0, Elements())).
func (e *Ext) Elements() uint32 { return e.Order }
