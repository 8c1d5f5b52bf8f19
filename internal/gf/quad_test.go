package gf

import (
	"math/rand"
	"testing"
)

func TestNewQuadParameters(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9, 11} {
		q, err := NewQuad(n)
		if err != nil {
			t.Fatalf("NewQuad(%d): %v", n, err)
		}
		if q.Ext2.Order != 1<<uint(2*n) {
			t.Errorf("n=%d: order %d", n, q.Ext2.Order)
		}
		if q.Rho*3 != q.Ext2.Order-1 {
			t.Errorf("n=%d: ρ = %d", n, q.Rho)
		}
		if q.Tau*3 != q.Sigma {
			t.Errorf("n=%d: τ = %d, σ = %d", n, q.Tau, q.Sigma)
		}
	}
}

func TestNewQuadRejectsEvenN(t *testing.T) {
	for _, n := range []int{2, 4, 8, 13} {
		if _, err := NewQuad(n); err == nil {
			t.Errorf("NewQuad(%d): expected error", n)
		}
	}
}

// TestQuadWGeneratesF4 verifies w = λ^ρ has multiplicative order 3 and lies
// outside F_{2^n}: the paper's basis requirement.
func TestQuadWGeneratesF4(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		q, err := NewQuad(n)
		if err != nil {
			t.Fatal(err)
		}
		if q.InSubfield(q.W) {
			t.Fatalf("n=%d: w lies in F_{2^n}", n)
		}
		w2 := q.Ext2.Mul(q.W, q.W)
		w3 := q.Ext2.Mul(w2, q.W)
		if w3 != 1 || q.W == 1 || w2 == 1 {
			t.Fatalf("n=%d: w does not have order 3 (w=%#x w^2=%#x w^3=%#x)", n, q.W, w2, w3)
		}
		// w^2 = w + 1 (the F_4 relation) must hold.
		if w2 != q.Ext2.Add(q.W, 1) {
			t.Fatalf("n=%d: w^2 != w+1", n)
		}
	}
}

// TestQuadSubfieldViaSigma checks F_{2^n}^* = {λ^{iσ}} as claimed in §4.
func TestQuadSubfieldViaSigma(t *testing.T) {
	q, err := NewQuad(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	for i := uint32(0); i < (1<<5)-1; i++ {
		v := q.Ext2.Exp(int(i * q.Sigma))
		if !q.InSubfield(v) {
			t.Fatalf("λ^{%dσ} = %#x not in subfield", i, v)
		}
		if seen[v] {
			t.Fatalf("λ^{iσ} repeats at i=%d", i)
		}
		seen[v] = true
	}
	if len(seen) != (1<<5)-1 {
		t.Fatalf("covered %d of 31 subfield units", len(seen))
	}
}

func TestQuadPairUnpair(t *testing.T) {
	for _, n := range []int{3, 7} {
		q, err := NewQuad(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		base := uint32(1) << uint(n)
		for i := 0; i < 1000; i++ {
			x := uint32(rng.Intn(int(base)))
			y := uint32(rng.Intn(int(base)))
			alpha := q.Pair(x, y)
			gx, gy := q.Unpair(alpha)
			if gx != x || gy != y {
				t.Fatalf("n=%d: unpair(pair(%d,%d)) = (%d,%d)", n, x, y, gx, gy)
			}
		}
		// Pair is a bijection rows → field (spot-check injectivity on zero axis).
		if q.Pair(0, 0) != 0 {
			t.Fatalf("Pair(0,0) = %#x", q.Pair(0, 0))
		}
		for v := uint32(0); v < q.Ext2.Order; v++ {
			x, y := q.Unpair(v)
			if q.Pair(x, y) != v {
				t.Fatalf("n=%d: pair(unpair(%#x)) mismatch", n, v)
			}
		}
	}
}

// TestQuadBaseMatchesExt1 verifies the critical representation-compatibility
// invariant: the base field of Quad (GF(2^n) built as Field) computes the
// same packed products as NewExt(1, n) (GF(2^n) built as an extension of
// GF(2)). The memory scheme moves packed values between the two freely.
func TestQuadBaseMatchesExt1(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		q, err := NewQuad(n)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewExt(1, n)
		if err != nil {
			t.Fatal(err)
		}
		b := q.Base()
		for a := uint32(0); a < e.Order; a++ {
			for c := uint32(0); c < e.Order; c += 3 { // stride keeps the test fast
				if b.Mul(a, c) != e.Mul(a, c) {
					t.Fatalf("n=%d: representations disagree at %#x * %#x", n, a, c)
				}
			}
		}
	}
}
