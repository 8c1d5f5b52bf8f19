package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFieldDegrees(t *testing.T) {
	for m := 1; m <= 16; m++ {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("NewField(%d): %v", m, err)
		}
		if f.Order != 1<<uint(m) {
			t.Errorf("NewField(%d): order %d", m, f.Order)
		}
	}
}

func TestNewFieldRejectsBadDegree(t *testing.T) {
	for _, m := range []int{0, -1, 17, 100} {
		if _, err := NewField(m); err == nil {
			t.Errorf("NewField(%d): expected error", m)
		}
	}
}

// TestPrimitivePolynomialTable re-derives primitivity of every table entry by
// checking that the exp table enumerated the full multiplicative group. This
// is implicit in NewField, but the explicit loop documents the invariant.
func TestPrimitivePolynomialTable(t *testing.T) {
	for m := 1; m <= 16; m++ {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("degree %d: %v", m, err)
		}
		seen := make(map[uint32]bool)
		for i := uint32(0); i < f.Order-1; i++ {
			v := f.Exp(int(i))
			if seen[v] {
				t.Fatalf("degree %d: exp repeats value %#x before covering the group", m, v)
			}
			seen[v] = true
		}
		if len(seen) != int(f.Order)-1 {
			t.Fatalf("degree %d: exp covered %d of %d nonzero elements", m, len(seen), f.Order-1)
		}
	}
}

func TestFieldKnownGF4(t *testing.T) {
	f, err := NewField(2)
	if err != nil {
		t.Fatal(err)
	}
	// GF(4) with x^2 = x+1: elements 0,1,x=2,x+1=3.
	cases := []struct{ a, b, want uint32 }{
		{2, 2, 3}, // x·x = x+1
		{2, 3, 1}, // x·(x+1) = x^2+x = 1
		{3, 3, 2}, // (x+1)^2 = x^2+1 = x
		{1, 3, 3},
		{0, 3, 0},
	}
	for _, c := range cases {
		if got := f.Mul(c.a, c.b); got != c.want {
			t.Errorf("GF(4): %d*%d = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if f.Inv(2) != 3 || f.Inv(3) != 2 || f.Inv(1) != 1 {
		t.Errorf("GF(4) inverses wrong: inv(2)=%d inv(3)=%d", f.Inv(2), f.Inv(3))
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, m := range []int{1, 3, 8, 11} {
		f, err := NewField(m)
		if err != nil {
			t.Fatal(err)
		}
		mask := f.Order - 1
		assoc := func(a, b, c uint32) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
		}
		distrib := func(a, b, c uint32) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
		}
		comm := func(a, b uint32) bool {
			a, b = a&mask, b&mask
			return f.Mul(a, b) == f.Mul(b, a)
		}
		inverse := func(a uint32) bool {
			a &= mask
			if a == 0 {
				return true
			}
			return f.Mul(a, f.Inv(a)) == 1
		}
		for name, prop := range map[string]interface{}{
			"associativity":  assoc,
			"distributivity": distrib,
			"commutativity":  comm,
			"inverse":        inverse,
		} {
			if err := quick.Check(prop, nil); err != nil {
				t.Errorf("GF(2^%d) %s: %v", m, name, err)
			}
		}
	}
}

func TestFieldPowDivLog(t *testing.T) {
	f, err := NewField(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := uint32(rng.Intn(int(f.Order)))
		b := uint32(1 + rng.Intn(int(f.Order)-1))
		if f.Mul(f.Div(a, b), b) != a {
			t.Fatalf("div/mul roundtrip failed for %d/%d", a, b)
		}
		if a != 0 {
			if f.Exp(f.Log(a)) != a {
				t.Fatalf("exp(log(%d)) != %d", a, a)
			}
		}
		k := rng.Intn(1000)
		want := uint32(1)
		for j := 0; j < k; j++ {
			want = f.Mul(want, a)
		}
		if got := f.Pow(a, k); got != want {
			t.Fatalf("Pow(%d,%d) = %d, want %d", a, k, got, want)
		}
	}
}

func TestFieldFermat(t *testing.T) {
	// a^(2^m) = a for every element (Frobenius fixed field).
	for _, m := range []int{2, 5, 10} {
		f, err := NewField(m)
		if err != nil {
			t.Fatal(err)
		}
		for a := uint32(0); a < f.Order; a++ {
			if f.Pow(a, int(f.Order)) != a {
				t.Fatalf("GF(2^%d): a^q != a for a=%d", m, a)
			}
		}
	}
}

func TestFieldZeroPanics(t *testing.T) {
	f, err := NewField(4)
	if err != nil {
		t.Fatal(err)
	}
	assertPanics(t, "Inv(0)", func() { f.Inv(0) })
	assertPanics(t, "Div(1,0)", func() { f.Div(1, 0) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestInvDivExhaustive checks Inv over every a ≠ 0 and Div over every pair
// with b ≠ 0 in GF(2^6) and in F_{2^6} built as Ext(1, 6), against the
// log-domain definitions reduced mod n = 2^6 − 1 and against Mul. Inv reads
// the doubled exp table at n − log a and Div at log a − log b + n, so a = 1
// (log 0, the index n itself) and every wrap past n are covered.
func TestInvDivExhaustive(t *testing.T) {
	f, err := NewField(6)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExt(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	type field interface {
		Mul(a, b uint32) uint32
		Inv(a uint32) uint32
		Div(a, b uint32) uint32
		Exp(i int) uint32
		Log(a uint32) int
	}
	for _, c := range []struct {
		name  string
		f     field
		order uint32
	}{{"Field(6)", f, f.Order}, {"Ext(1,6)", e, e.Order}} {
		n := int(c.order) - 1
		for a := uint32(1); a < c.order; a++ {
			inv := c.f.Inv(a)
			if want := c.f.Exp((n - c.f.Log(a)) % n); inv != want || c.f.Mul(a, inv) != 1 {
				t.Fatalf("%s: Inv(%d) = %d, want %d", c.name, a, inv, want)
			}
		}
		for a := uint32(0); a < c.order; a++ {
			for b := uint32(1); b < c.order; b++ {
				q := c.f.Div(a, b)
				want := uint32(0)
				if a != 0 {
					want = c.f.Exp((c.f.Log(a) - c.f.Log(b) + n) % n)
				}
				if q != want || c.f.Mul(q, b) != a {
					t.Fatalf("%s: Div(%d, %d) = %d, want %d", c.name, a, b, q, want)
				}
			}
		}
	}
}
