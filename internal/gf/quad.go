package gf

import "fmt"

// Quad is the quadratic extension F_{2^{2n}} of F_{2^n} used by the paper's
// Section 4 to index the variable cosets (bijection 1, case q = 2, n odd).
// Each row (x y) of a 2×2 matrix over F_{2^n} is identified with the single
// element x·w + y of F_{2^{2n}}, where
//
//	ρ = (2^{2n}−1)/3,  σ = 2^n+1,  τ = (2^n+1)/3,  w = λ^ρ,
//
// λ a generator of F_{2^{2n}}^*. Because n is odd, F_4 ⊄ F_{2^n}, so
// w ∈ F_4 \ F_2 together with 1 forms a basis of F_{2^{2n}} over F_{2^n}.
//
// The F_{2^n} arithmetic inside Quad is the base field of the degree-2
// extension; it reduces by the same primitive polynomial as the
// NewExt(1, n) field used for matrix entries, so packed values are
// interchangeable between the two (verified by tests).
type Quad struct {
	Ext2 *Ext // F_{2^{2n}} as a degree-2 extension of GF(2^n)
	N    int  // n

	Rho   uint32 // (2^{2n}−1)/3
	Sigma uint32 // 2^n+1
	Tau   uint32 // (2^n+1)/3

	W      uint32 // w = λ^ρ, packed in the (1, λ) basis
	w0, w1 uint32 // w = w0 + w1·λ with w0, w1 ∈ F_{2^n}
}

// NewQuad builds the Section 4 indexing field for odd n with 3 <= n <= 12
// (2n must fit the table budget).
func NewQuad(n int) (*Quad, error) {
	if n%2 == 0 {
		return nil, fmt.Errorf("gf: Section 4 indexing requires odd n, got %d", n)
	}
	if n < 3 || 2*n > MaxBits {
		return nil, fmt.Errorf("gf: quad extension degree n=%d out of range", n)
	}
	ext2, err := NewExt(n, 2)
	if err != nil {
		return nil, err
	}
	q := &Quad{
		Ext2:  ext2,
		N:     n,
		Rho:   (ext2.Order - 1) / 3,
		Sigma: (1 << uint(n)) + 1,
		Tau:   ((1 << uint(n)) + 1) / 3,
	}
	q.W = ext2.Exp(int(q.Rho))
	q.w0 = ext2.Coeff(q.W, 0)
	q.w1 = ext2.Coeff(q.W, 1)
	if q.w1 == 0 {
		// w ∈ F_{2^n} would contradict n odd; the construction guarantees
		// this never happens, so treat it as an internal invariant violation.
		return nil, fmt.Errorf("gf: internal: w = λ^ρ landed in the base field")
	}
	return q, nil
}

// Base returns the F_{2^n} base-field arithmetic of the quadratic extension.
func (q *Quad) Base() *Field { return q.Ext2.Base }

// Pair maps a matrix row (x y) over F_{2^n} to the element x·w + y of
// F_{2^{2n}} (the paper's ⟨·⟩ row encoding).
func (q *Quad) Pair(x, y uint32) uint32 {
	// x·w + y with w = w0 + w1·λ: coefficients (x·w0 + y, x·w1).
	b := q.Ext2.Base
	return q.Ext2.FromCoeffs([]uint32{b.Add(b.Mul(x, q.w0), y), b.Mul(x, q.w1)})
}

// Unpair inverts Pair: given α ∈ F_{2^{2n}}, return the unique (x, y) with
// α = x·w + y.
func (q *Quad) Unpair(alpha uint32) (x, y uint32) {
	b := q.Ext2.Base
	c0 := q.Ext2.Coeff(alpha, 0)
	c1 := q.Ext2.Coeff(alpha, 1)
	x = b.Div(c1, q.w1)
	y = b.Add(c0, b.Mul(x, q.w0))
	return x, y
}

// InSubfield reports whether α lies in F_{2^n}. In the (1, λ) packing the
// λ-coefficient of x·w + y is x·w1 with w1 ≠ 0, so α is in the subfield
// exactly when that coefficient vanishes.
func (q *Quad) InSubfield(alpha uint32) bool {
	return q.Ext2.Coeff(alpha, 1) == 0
}
