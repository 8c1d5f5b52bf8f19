package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"detshmem/internal/pgl"
)

// torusFixture is one scheme's torus structure, as a table compile uses it.
type torusFixture struct {
	s      *Scheme
	ex     *ExplicitIndexer
	g      pgl.Mat // diag(1, μ)
	perm   []uint32
	orbits []Orbit
}

func newTorusFixture(t testing.TB, n int) *torusFixture {
	t.Helper()
	s := newScheme(t, 1, n)
	ex, err := NewExplicitIndexer(s)
	if err != nil {
		t.Fatal(err)
	}
	mu := ex.Torus()
	return &torusFixture{s: s, ex: ex, g: s.G.MustMake(1, 0, 0, mu), perm: s.TorusPerm(mu), orbits: ex.Orbits()}
}

// derived counts the rows the orbits derive: every orbit row past its seeds.
func (x *torusFixture) derived() uint64 {
	var d uint64
	for _, o := range x.orbits {
		d += o.Count - min(o.Period, o.Count)
	}
	return d
}

// checkRow checks derived row v of an orbit of period p: the torus image of
// variable v−p is variable v, and every copy of v sits at π_g of the module
// and at the offset of the same copy of v−p.
func (x *torusFixture) checkRow(t testing.TB, v, p uint64) {
	t.Helper()
	s := x.s
	prev := x.ex.Mat(v - p)
	if got, ok := x.ex.Index(s.G.Mul(x.g, prev)); !ok || got != v {
		t.Fatalf("n=%d: Index(g·Mat(%d)) = %d,%v, want %d", s.Deg, v-p, got, ok, v)
	}
	a := x.ex.Mat(v)
	for c := 0; c < s.Copies; c++ {
		mod, off := s.CopyLocation(a, c)
		pmod, poff := s.CopyLocation(prev, c)
		if uint64(x.perm[pmod]) != mod || poff != off {
			t.Fatalf("n=%d: copy %d of %d at (%d,%d), π_g of copy %d of %d is (%d,%d)",
				s.Deg, c, v, mod, off, c, v-p, x.perm[pmod], poff)
		}
	}
}

// TestTorusPerm checks π_g's closed form against the PGL product it stands
// for, ModuleIndex(g·ModuleMat(j)) for every module, and that it is a
// permutation.
func TestTorusPerm(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		x := newTorusFixture(t, n)
		s := x.s
		g := x.g
		seen := make([]bool, s.NumModules)
		for j := uint64(0); j < s.NumModules; j++ {
			want := s.ModuleIndex(s.G.Mul(g, s.ModuleMat(j)))
			if got := uint64(x.perm[j]); got != want {
				t.Fatalf("n=%d: π_g(%d) = %d, ModuleIndex(g·B_j) = %d", n, j, got, want)
			}
			if seen[want] {
				t.Fatalf("n=%d: π_g hits module %d twice", n, want)
			}
			seen[want] = true
		}
	}
}

// TestTorusEquivariance checks the torus structure the compiled table is
// built from: the orbits are ascending, disjoint and inside [0, M), S₁ is
// one orbit of period 1 and each S₄ class one of period σ−3 or σ−4; and on
// every derived row at n = 3, 5 and 7 — at n = 9 on both sides of every
// orbit's seed/derived edge and end plus 10⁵ seeded rows — the row is g times
// its predecessor, copy by copy through π_g. It pins the derived fraction of
// the rows at each n.
func TestTorusEquivariance(t *testing.T) {
	wantDerived := map[int]uint64{3: 26, 5: 4_090, 7: 325_626, 9: 21_979_130}
	for _, n := range []int{3, 5, 7, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			x := newTorusFixture(t, n)
			s, ex := x.s, x.ex
			if len(x.orbits) != 1+3*int(ex.sMax) {
				t.Fatalf("%d orbits, want 1+3·%d", len(x.orbits), ex.sMax)
			}
			if o := x.orbits[0]; o != (Orbit{0, ex.c1, 1}) {
				t.Fatalf("S₁ orbit %+v", o)
			}
			next := ex.c1 + 2*ex.c2
			for _, o := range x.orbits[1:] {
				if o.First != next || (o.Period != ex.sigma-3 && o.Period != ex.sigma-4) {
					t.Fatalf("S₄ orbit %+v, want first %d and period σ−3 or σ−4 (σ=%d)", o, next, ex.sigma)
				}
				next += o.Count
			}
			if next != s.NumVariables {
				t.Fatalf("orbits end at %d, M = %d", next, s.NumVariables)
			}
			d := x.derived()
			t.Logf("n=%d: %d of %d rows derived (%.1f %%)", n, d, s.NumVariables, 100*float64(d)/float64(s.NumVariables))
			if d != wantDerived[n] {
				t.Fatalf("n=%d: %d derived rows, want %d", n, d, wantDerived[n])
			}
			if n < 9 {
				// -short (the race lanes) checks every 17th row at n=7.
				step := uint64(1)
				if testing.Short() && n == 7 {
					step = 17
				}
				for _, o := range x.orbits {
					for v := o.First + o.Period; v < o.First+o.Count; v += step {
						x.checkRow(t, v, o.Period)
					}
				}
				return
			}
			for _, o := range x.orbits {
				lo, hi := o.First+o.Period, o.First+o.Count
				for _, v := range []uint64{lo, lo + 1, lo + o.Period - 1, lo + o.Period, hi - 2, hi - 1} {
					x.checkRow(t, v, o.Period)
				}
			}
			rng := rand.New(rand.NewSource(54))
			for k := 0; k < 100000; k++ {
				v, p := x.pick(uint64(rng.Int63()))
				x.checkRow(t, v, p)
			}
		})
	}
}

// pick maps any id to a derived row and its period: the orbit id selects
// round-robin, the rest of id the row among that orbit's derived ones.
func (x *torusFixture) pick(id uint64) (v, p uint64) {
	o := x.orbits[id%uint64(len(x.orbits))]
	return o.First + o.Period + id/uint64(len(x.orbits))%(o.Count-o.Period), o.Period
}

var (
	torusFuzzOnce sync.Once
	torusFuzzX    *torusFixture
)

// FuzzTorusOrbit checks the torus equivariance on any derived row at n = 9,
// where the orbits are longest (98.3 % of the rows derive).
func FuzzTorusOrbit(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(1) << 40)
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, id uint64) {
		torusFuzzOnce.Do(func() { torusFuzzX = newTorusFixture(t, 9) })
		v, p := torusFuzzX.pick(id)
		torusFuzzX.checkRow(t, v, p)
	})
}
