package core

import (
	"fmt"
	"math/rand"
	"testing"

	"detshmem/internal/gf"
	"detshmem/internal/pgl"
)

// refExplicit is the division-based Theorem 8 decode the ExplicitIndexer
// used before its decode became division-free, kept only as a test oracle:
// every quotient and residue is a hardware divide, every exponent is reduced
// mod the group order, and the row unpairing and projective normalisation go
// through discrete logs reduced the same way. It builds its own field and
// shares no state with the indexer, so TestExplicitMatMatchesReference pins
// the map itself — the same matrix for every index — not only that Mat is a
// bijection.
type refExplicit struct {
	s  *Scheme
	qd *gf.Quad

	c1, c2, c4s, sMax uint64
	rho, sigma, tau   uint64
}

func newRefExplicit(t testing.TB, s *Scheme) *refExplicit {
	t.Helper()
	qd, err := gf.NewQuad(s.Deg)
	if err != nil {
		t.Fatal(err)
	}
	pow := uint64(1) << uint(s.Deg)
	return &refExplicit{
		s:     s,
		qd:    qd,
		c1:    pow - 1,
		c2:    (pow - 1) * (pow/2 - 1),
		c4s:   (pow - 1) * (pow - 3),
		sMax:  (pow/2 - 1) / 3,
		rho:   uint64(qd.Rho),
		sigma: uint64(qd.Sigma),
		tau:   uint64(qd.Tau),
	}
}

func (e *refExplicit) k(s, t uint64) uint64 { return (s + t*e.sigma) % e.rho }

// lambda is λ^i with i reduced mod the order of F_{2^{2n}}^*.
func (e *refExplicit) lambda(i uint64) uint32 {
	return e.qd.Ext2.Exp(int(i % (uint64(e.qd.Ext2.Order) - 1)))
}

// unpair inverts the row encoding α = x·w + y with a log-domain division
// reduced mod 2^n − 1.
func (e *refExplicit) unpair(alpha uint32) (x, y uint32) {
	b := e.qd.Base()
	n := int(b.Order) - 1
	w := e.qd.W
	w0, w1 := e.qd.Ext2.Coeff(w, 0), e.qd.Ext2.Coeff(w, 1)
	c0, c1 := e.qd.Ext2.Coeff(alpha, 0), e.qd.Ext2.Coeff(alpha, 1)
	if c1 != 0 {
		x = b.Exp((b.Log(c1) - b.Log(w1) + n) % n)
	}
	return x, c0 ^ b.Mul(x, w0)
}

// canon is pgl's projective normalisation with the inverse taken as a
// log-domain negation reduced mod q^n − 1.
func (e *refExplicit) canon(a, b, c, d uint32) pgl.Mat {
	f := e.s.G.F
	if f.Mul(a, d)^f.Mul(b, c) == 0 {
		panic(fmt.Sprintf("ref: singular matrix (%#x %#x; %#x %#x)", a, b, c, d))
	}
	n := int(f.Order) - 1
	inv := func(v uint32) uint32 { return f.Exp((n - f.Log(v)) % n) }
	if d != 0 {
		iv := inv(d)
		return pgl.Mat{A: f.Mul(a, iv), B: f.Mul(b, iv), C: f.Mul(c, iv), D: 1}
	}
	iv := inv(c)
	return pgl.Mat{A: f.Mul(a, iv), B: f.Mul(b, iv), C: 1, D: 0}
}

func (e *refExplicit) matFromPair(alpha, beta uint32) pgl.Mat {
	x1, y1 := e.unpair(alpha)
	x2, y2 := e.unpair(beta)
	return e.canon(x1, y1, x2, y2)
}

func (e *refExplicit) mat(i uint64) pgl.Mat {
	switch {
	case i < e.c1:
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

func (e *refExplicit) splitS23(off uint64) (s, t, j uint64) {
	perS := e.c1 * 3
	s = 1 + off/perS
	rem := off % perS
	return s, rem / 3, rem % 3
}

func (e *refExplicit) matS4(off uint64) pgl.Mat {
	s := 1 + off/e.c4s
	r := off % e.c4s
	ks0 := e.k(s, 0)
	var j uint64
	for j = 0; j < 3; j++ {
		cnt := e.validS4Count(ks0, j, e.rho-1)
		if r < cnt {
			break
		}
		r -= cnt
	}
	if j == 3 {
		panic("ref: S₄ rank exceeded per-s block")
	}
	i := e.unrankS4(ks0, j, r)
	return e.matFromPair(e.lambda(ks0), e.lambda(i+j*e.rho))
}

func (e *refExplicit) cJ(ks0, j uint64) uint64 {
	m := int64(ks0) - int64(j)*int64(e.rho)
	m %= int64(e.sigma)
	if m < 0 {
		m += int64(e.sigma)
	}
	return uint64(m)
}

func (e *refExplicit) validS4Count(ks0, j, x uint64) uint64 {
	bad := x / e.tau
	c := e.cJ(ks0, j)
	if c%e.tau != 0 {
		bad += countCong(x, c, e.sigma)
	}
	return x - bad
}

func (e *refExplicit) unrankS4(ks0, j, r uint64) uint64 {
	c := e.cJ(ks0, j)
	v := e.sigma - 3
	cx := c%e.tau != 0
	if cx {
		v--
	}
	k := r / v
	o := r%v + 1
	ex := [4]uint64{e.tau, 2 * e.tau, e.sigma, ^uint64(0)}
	if cx {
		switch {
		case c < e.tau:
			ex = [4]uint64{c, e.tau, 2 * e.tau, e.sigma}
		case c < 2*e.tau:
			ex = [4]uint64{e.tau, c, 2 * e.tau, e.sigma}
		default:
			ex = [4]uint64{e.tau, 2 * e.tau, c, e.sigma}
		}
	}
	for _, x := range ex {
		if x > o {
			break
		}
		o++
	}
	return k*e.sigma + o
}

// boundaryIndices lists both sides of every edge in the decode at ref's
// scheme: the S₁/S₂/S₃/S₄ set boundaries and M−1, every per-s S₄ block, and
// every j boundary inside a block.
func (e *refExplicit) boundaryIndices() []uint64 {
	var edges []uint64
	base4 := e.c1 + 2*e.c2
	edges = append(edges, e.c1, e.c1+e.c2, base4, e.s.NumVariables-1)
	for s := uint64(1); s <= e.sMax; s++ {
		block := base4 + (s-1)*e.c4s
		edges = append(edges, block)
		for j := uint64(0); j < 2; j++ {
			block += e.validS4Count(s, j, e.rho-1)
			edges = append(edges, block)
		}
	}
	var out []uint64
	for _, b := range edges {
		out = append(out, b-1, b)
		if b+1 < e.s.NumVariables {
			out = append(out, b+1)
		}
	}
	return out
}

// TestExplicitMatMatchesReference checks that Mat returns exactly the matrix
// the division-based reference decode returns: for every index at n = 3, 5
// and 7, and at n = 9 on both sides of every set, per-s block and j boundary
// plus 10⁵ seeded random indices.
func TestExplicitMatMatchesReference(t *testing.T) {
	check := func(t *testing.T, ex *ExplicitIndexer, ref *refExplicit, i uint64) {
		if got, want := ex.Mat(i), ref.mat(i); got != want {
			t.Fatalf("Mat(%d) = %v, reference %v", i, got, want)
		}
	}
	for _, n := range []int{3, 5, 7} {
		t.Run(fmt.Sprintf("n=%d/all", n), func(t *testing.T) {
			s := newScheme(t, 1, n)
			ex, err := NewExplicitIndexer(s)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefExplicit(t, s)
			for i := uint64(0); i < s.NumVariables; i++ {
				check(t, ex, ref, i)
			}
		})
	}
	t.Run("n=9/boundaries+random", func(t *testing.T) {
		s := newScheme(t, 1, 9)
		ex, err := NewExplicitIndexer(s)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefExplicit(t, s)
		edges := ref.boundaryIndices()
		if len(edges) < 3*3*int(ref.sMax) {
			t.Fatalf("only %d boundary indices for %d blocks", len(edges), ref.sMax)
		}
		for _, i := range edges {
			check(t, ex, ref, i)
		}
		rng := rand.New(rand.NewSource(53))
		for k := 0; k < 100000; k++ {
			check(t, ex, ref, uint64(rng.Int63n(int64(s.NumVariables))))
		}
	})
}
