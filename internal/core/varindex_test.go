package core

import (
	"math/rand"
	"testing"

	"detshmem/internal/pgl"
)

func TestEnumeratedIndexerBijection(t *testing.T) {
	for _, c := range []struct{ m, n int }{{1, 3}, {1, 5}, {2, 3}} {
		s := newScheme(t, c.m, c.n)
		idx := NewEnumeratedIndexer(s)
		if idx.M() != s.NumVariables {
			t.Fatalf("q=%d n=%d: indexer M = %d, want %d", s.Q, c.n, idx.M(), s.NumVariables)
		}
		seen := make(map[pgl.Mat]bool, idx.M())
		for i := uint64(0); i < idx.M(); i++ {
			key := s.VarKey(idx.Mat(i))
			if seen[key] {
				t.Fatalf("index %d repeats a coset", i)
			}
			seen[key] = true
			back, ok := idx.Index(key)
			if !ok || back != i {
				t.Fatalf("Index(Mat(%d)) = %d,%v", i, back, ok)
			}
		}
	}
}

// TestExplicitIndexerMatchesTheorem8 verifies, exhaustively for n = 3 and 5,
// that the S₁–S₄ construction yields M matrices in pairwise-distinct H₀
// cosets — i.e. a complete set of representatives (Theorem 8).
func TestExplicitIndexerMatchesTheorem8(t *testing.T) {
	for _, n := range []int{3, 5} {
		s := newScheme(t, 1, n)
		ex, err := NewExplicitIndexer(s)
		if err != nil {
			t.Fatal(err)
		}
		if ex.M() != s.NumVariables {
			t.Fatalf("n=%d: explicit M = %d, want %d", n, ex.M(), s.NumVariables)
		}
		c1, c2, c3, c4 := ex.SetSizes()
		if c1+c2+c3+c4 != s.NumVariables {
			t.Fatalf("n=%d: set sizes %d+%d+%d+%d != M", n, c1, c2, c3, c4)
		}
		seen := make(map[pgl.Mat]uint64, ex.M())
		for i := uint64(0); i < ex.M(); i++ {
			key := s.VarKey(ex.Mat(i))
			if prev, dup := seen[key]; dup {
				t.Fatalf("n=%d: indices %d and %d map to the same coset", n, prev, i)
			}
			seen[key] = i
		}
		// Completeness: the keys coincide with the enumerated universe.
		en := NewEnumeratedIndexer(s)
		for i := uint64(0); i < en.M(); i++ {
			if _, ok := seen[s.VarKey(en.Mat(i))]; !ok {
				t.Fatalf("n=%d: enumerated coset %d missing from explicit indexing", n, i)
			}
		}
	}
}

// TestExplicitIndexerLarge spot-checks distinctness on n = 7 (M = 349504)
// via full key enumeration — large but linear.
func TestExplicitIndexerLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	s := newScheme(t, 1, 7)
	ex, err := NewExplicitIndexer(s)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[pgl.Mat]bool, ex.M())
	for i := uint64(0); i < ex.M(); i++ {
		key := s.VarKey(ex.Mat(i))
		if seen[key] {
			t.Fatalf("duplicate coset at index %d", i)
		}
		seen[key] = true
	}
	if uint64(len(seen)) != s.NumVariables {
		t.Fatalf("covered %d of %d cosets", len(seen), s.NumVariables)
	}
}

func TestExplicitIndexerRejectsBadParams(t *testing.T) {
	s4 := newScheme(t, 2, 3)
	if _, err := NewExplicitIndexer(s4); err == nil {
		t.Error("q=4 accepted")
	}
	s6 := newScheme(t, 1, 6)
	if _, err := NewExplicitIndexer(s6); err == nil {
		t.Error("even n accepted")
	}
}

func TestExplicitIndexerPanicsOutOfRange(t *testing.T) {
	s := newScheme(t, 1, 3)
	ex, err := NewExplicitIndexer(s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	ex.Mat(ex.M())
}

func TestNewIndexerSelection(t *testing.T) {
	s := newScheme(t, 1, 5)
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.(*ExplicitIndexer); !ok {
		t.Errorf("q=2 n=5: expected explicit indexer, got %T", idx)
	}
	s4 := newScheme(t, 2, 3)
	idx4, err := s4.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx4.(*CompactIndexer); !ok {
		t.Errorf("q=4: expected compact indexer, got %T", idx4)
	}
}

// benchMat keeps BenchmarkExplicitMat's result live.
var benchMat pgl.Mat

// BenchmarkExplicitMat is the Theorem 8 decode alone at q=2 n=9
// (M = 22 369 536): one Mat per op over 4 096 pre-drawn ids, uniform over
// [0, M) — almost all in S₄ — or Zipf 1.1, as large-zipf draws them, whose
// small ids fall in S₁–S₃.
func BenchmarkExplicitMat(b *testing.B) {
	s := newScheme(b, 1, 9)
	ex, err := NewExplicitIndexer(s)
	if err != nil {
		b.Fatal(err)
	}
	const k = 4096
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, ex.M()-1)
	var uniform, skewed [k]uint64
	for i := range uniform {
		uniform[i] = uint64(rng.Int63n(int64(ex.M())))
		skewed[i] = zipf.Uint64()
	}
	for _, c := range []struct {
		name string
		ids  *[k]uint64
	}{{"uniform", &uniform}, {"zipf1.1", &skewed}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchMat = ex.Mat(c.ids[i%k])
			}
		})
	}
}
