// Package gf implements the finite-field arithmetic underlying the
// Pietracaprina–Preparata memory-organization scheme: the base field
// F_q = GF(2^m), the extension field F_{q^n} represented as polynomials in a
// primitive element γ with coefficients in F_q, and the quadratic extension
// F_{q^{2n}} used by the paper's Section 4 variable-indexing bijection.
//
// Elements are packed into machine words: an element of GF(2^m) occupies m
// bits, and an element of F_{q^n} packs its n base-field coefficients
// (coefficient of γ^i in bits [i·m, (i+1)·m)). Addition in characteristic 2
// is XOR on the packed representation; multiplication goes through full
// exponential/logarithm tables, which the construction can afford because the
// fields involved are small (q^n ≤ 2^24 covers every machine size the MPC
// simulator can hold).
package gf

import "fmt"

// MaxBits bounds the packed size (in bits) of any field handled by this
// package. exp/log tables are O(2^MaxBits) words.
const MaxBits = 24

// Field is the base field GF(2^m). Elements are uint32 values in [0, 2^m).
// Addition is XOR; multiplication, inversion and exponentiation use
// discrete-log tables built at construction time.
type Field struct {
	M     int    // extension degree over GF(2)
	Order uint32 // 2^M
	Poly  uint32 // primitive polynomial of degree M (bit M set)

	exp []uint32 // exp[i] = x^i for 0 <= i < 2*(Order-1) (doubled to skip a mod)
	log []int32  // log[a] = i with x^i = a; log[0] = -1
}

// NewField constructs GF(2^m) for 1 <= m <= 16 using a table of primitive
// polynomials. The primitivity of x is re-verified while the exp table is
// built, so a corrupt table entry cannot yield a silently wrong field.
func NewField(m int) (*Field, error) {
	if m < 1 || m > 16 {
		return nil, fmt.Errorf("gf: base field degree m=%d out of range [1,16]", m)
	}
	poly := primitivePoly2[m]
	f := &Field{
		M:     m,
		Order: 1 << uint(m),
		Poly:  poly,
	}
	if err := f.buildTables(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *Field) buildTables() error {
	n := int(f.Order) - 1 // multiplicative group order
	f.exp = make([]uint32, 2*n)
	f.log = make([]int32, f.Order)
	for i := range f.log {
		f.log[i] = -1
	}
	a := uint32(1)
	for i := 0; i < n; i++ {
		if f.log[a] != -1 {
			return fmt.Errorf("gf: polynomial %#x of degree %d is not primitive (x has order %d < %d)",
				f.Poly, f.M, i, n)
		}
		f.exp[i] = a
		f.exp[i+n] = a
		f.log[a] = int32(i)
		// Multiply by x: shift and reduce by the modulus polynomial.
		a <<= 1
		if a&f.Order != 0 {
			a ^= f.Poly
		}
	}
	if a != 1 {
		return fmt.Errorf("gf: polynomial %#x of degree %d is not primitive (x^%d = %#x != 1)",
			f.Poly, f.M, n, a)
	}
	return nil
}

// Add returns a+b (characteristic 2: XOR).
func (f *Field) Add(a, b uint32) uint32 { return a ^ b }

// Mul returns a·b.
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns a^{-1}. It panics on a == 0, which is always a caller bug in
// this codebase (the group-theoretic constructions never invert zero).
func (f *Field) Inv(a uint32) uint32 {
	if a == 0 {
		panic("gf: inverse of zero in base field")
	}
	// With n = Order−1 and log a ∈ [0, n), the index n − log a is in [1, n],
	// inside the doubled table: no reduction.
	return f.exp[int32(f.Order)-1-f.log[a]]
}

// Div returns a/b.
func (f *Field) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("gf: division by zero in base field")
	}
	if a == 0 {
		return 0
	}
	// With n = Order−1, the index log a − log b + n is in [1, 2n−1], inside
	// the doubled table: no reduction.
	return f.exp[f.log[a]-f.log[b]+int32(f.Order)-1]
}

// Pow returns a^k for k >= 0 (with 0^0 = 1).
func (f *Field) Pow(a uint32, k int) uint32 {
	if k == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	n := int64(f.Order) - 1
	e := int64(f.log[a]) * int64(k) % n
	return f.exp[e]
}

// Exp returns x^i where x is the primitive generator used by the tables.
// i may be any non-negative integer.
func (f *Field) Exp(i int) uint32 {
	n := int(f.Order) - 1
	return f.exp[i%n]
}

// Log returns the discrete log of a to base x, or -1 for a == 0.
func (f *Field) Log(a uint32) int {
	return int(f.log[a])
}

// Contains reports whether v is a valid packed element of the field.
func (f *Field) Contains(v uint32) bool { return v < f.Order }

// primitivePoly2 lists one primitive polynomial over GF(2) for each degree
// 1..16, in packed form (bit i = coefficient of x^i). These are classical
// LFSR/Reed–Solomon generators; NewField verifies primitivity at runtime.
var primitivePoly2 = [...]uint32{
	0,       // degree 0: unused
	0x3,     // x + 1
	0x7,     // x^2 + x + 1
	0xB,     // x^3 + x + 1
	0x13,    // x^4 + x + 1
	0x25,    // x^5 + x^2 + 1
	0x43,    // x^6 + x + 1
	0x89,    // x^7 + x^3 + 1
	0x11D,   // x^8 + x^4 + x^3 + x^2 + 1
	0x211,   // x^9 + x^4 + 1
	0x409,   // x^10 + x^3 + 1
	0x805,   // x^11 + x^2 + 1
	0x1053,  // x^12 + x^6 + x^4 + x + 1
	0x201B,  // x^13 + x^4 + x^3 + x + 1
	0x4443,  // x^14 + x^10 + x^6 + x + 1
	0x8003,  // x^15 + x + 1
	0x1100B, // x^16 + x^12 + x^3 + x + 1
}
