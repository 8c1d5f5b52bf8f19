package workload

import (
	"math/rand"
	"testing"

	"detshmem/internal/core"
)

func TestDistinctRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{0, 1, 10, 100} {
		out := DistinctRandom(rng, 1000, k)
		if len(out) != k {
			t.Fatalf("got %d, want %d", len(out), k)
		}
		seen := make(map[uint64]bool)
		for _, v := range out {
			if v >= 1000 || seen[v] {
				t.Fatalf("bad sample %d", v)
			}
			seen[v] = true
		}
	}
	// Dense regime (k close to m) and clamping.
	out := DistinctRandom(rng, 50, 50)
	if len(out) != 50 {
		t.Fatalf("dense sample size %d", len(out))
	}
	if got := DistinctRandom(rng, 10, 99); len(got) != 10 {
		t.Fatalf("clamp failed: %d", len(got))
	}
}

func TestHotSpot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const m, k, hot = 10000, 20000, 16
	out := HotSpot(rng, m, k, hot, 0.9)
	if len(out) != k {
		t.Fatalf("size %d", len(out))
	}
	inHot := 0
	for _, v := range out {
		if v >= m {
			t.Fatalf("sample %d out of range", v)
		}
		if v < hot {
			inHot++
		}
	}
	// 90% targeted at the hot set (plus ~hot/m spillover from the uniform
	// arm); 20k draws concentrate tightly around that.
	if frac := float64(inHot) / k; frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction %.3f outside [0.85, 0.95]", frac)
	}
	// Degenerate parameters fall back to uniform over [0, m).
	for _, v := range HotSpot(rng, 10, 100, 0, 0.5) {
		if v >= 10 {
			t.Fatalf("fallback sample %d out of range", v)
		}
	}
}

func TestZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, k = 10000, 20000
	out := Zipf(rng, m, k, 1.5)
	if len(out) != k {
		t.Fatalf("size %d", len(out))
	}
	counts := make(map[uint64]int)
	for _, v := range out {
		if v >= m {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// Skew sanity: rank 0 dominates, and the stream repeats heavily (far
	// fewer distinct values than draws).
	if counts[0] < k/10 {
		t.Fatalf("rank-0 count %d too small for s=1.5", counts[0])
	}
	if len(counts) > k/4 {
		t.Fatalf("%d distinct values in %d draws: not skewed", len(counts), k)
	}
}

// TestClientStreams pins the per-client seeding contract: same (base,
// client) replays the identical ClientRNG stream, different clients diverge,
// and both skewed draws over it respect the draw bounds.
func TestClientStreams(t *testing.T) {
	const m, k = 5000, 4000
	a := HotSpot(ClientRNG(7, 3), m, k, 16, 0.8)
	b := HotSpot(ClientRNG(7, 3), m, k, 16, 0.8)
	c := HotSpot(ClientRNG(7, 4), m, k, 16, 0.8)
	d := HotSpot(ClientRNG(8, 3), m, k, 16, 0.8)
	same := func(x, y []uint64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same (base, client) did not replay the same stream")
	}
	if same(a, c) {
		t.Fatal("clients 3 and 4 drew identical streams")
	}
	if same(a, d) {
		t.Fatal("bases 7 and 8 drew identical streams")
	}
	if ClientSeed(7, 3) == ClientSeed(7, 4) || ClientSeed(7, 3) == ClientSeed(8, 3) {
		t.Fatal("ClientSeed collides on adjacent inputs")
	}
	for _, v := range Zipf(ClientRNG(7, 3), m, k, 1.2) {
		if v >= m {
			t.Fatalf("zipf stream draw %d out of range", v)
		}
	}
}

// TestDistributionBounds sweeps Zipf and HotSpot parameters and checks every
// draw stays below m and the hot fraction lands within tolerance of its
// target (p plus the uniform arm's hot/m spillover).
func TestDistributionBounds(t *testing.T) {
	const k = 30000
	for _, m := range []uint64{16, 1000, 1 << 20} {
		for client, s := range []float64{1.01, 1.5, 3} {
			for _, v := range Zipf(ClientRNG(11, client), m, k, s) {
				if v >= m {
					t.Fatalf("zipf(m=%d, s=%v) drew %d", m, s, v)
				}
			}
		}
		for client, p := range []float64{0, 0.5, 0.9, 1} {
			hot := uint64(16)
			if hot > m {
				hot = m
			}
			inHot := 0
			for _, v := range HotSpot(ClientRNG(11, client), m, k, hot, p) {
				if v >= m {
					t.Fatalf("hotspot(m=%d, p=%v) drew %d", m, p, v)
				}
				if v < hot {
					inHot++
				}
			}
			want := p + (1-p)*float64(hot)/float64(m)
			if got := float64(inHot) / k; got < want-0.02 || got > want+0.02 {
				t.Fatalf("hotspot(m=%d, p=%v) hot fraction %.3f, want %.3f±0.02", m, p, got, want)
			}
		}
	}
}

func TestStride(t *testing.T) {
	out := Stride(100, 10, 7)
	if len(out) != 10 {
		t.Fatalf("size %d", len(out))
	}
	seen := make(map[uint64]bool)
	for i, v := range out {
		if v != uint64(i*7%100) {
			t.Fatalf("stride value %d at %d", v, i)
		}
		if seen[v] {
			t.Fatal("duplicate")
		}
		seen[v] = true
	}
}

func TestGammaConcentrated(t *testing.T) {
	s, err := core.New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	k := int(s.ModuleSize) * 3
	vars, err := GammaConcentrated(s, idx, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != k {
		t.Fatalf("got %d vars, want %d", len(vars), k)
	}
	seen := make(map[uint64]bool)
	for _, v := range vars {
		if seen[v] {
			t.Fatal("duplicate variable")
		}
		seen[v] = true
	}
	// Locality property: the variables' copies only span modules
	// {0,1,2,...} ∪ their Γ² neighborhoods; in particular every variable
	// has a copy in modules {0..3} (it was drawn from one of them; 3 full
	// modules plus dedup spill can reach a 4th).
	for _, v := range vars {
		a := idx.Mat(v)
		found := false
		for _, j := range s.VarModules(nil, a) {
			if j <= 3 {
				found = true
			}
		}
		if !found {
			t.Fatalf("variable %d has no copy in the concentration window", v)
		}
	}
}

func TestSubfieldSet(t *testing.T) {
	s, err := core.New(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	vars, err := SubfieldSet(s, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	// PGL₂(2³) has 504 elements and H₀ = PGL₂(2) has 6: the embedded coset
	// space has 84 variables.
	if len(vars) != 84 {
		t.Fatalf("|subfield set| = %d, want 84", len(vars))
	}
	seen := make(map[uint64]bool)
	for _, v := range vars {
		if seen[v] {
			t.Fatal("duplicate")
		}
		seen[v] = true
	}
	// Expansion witness: the subfield set's Γ(S) should sit near the
	// Theorem 4 floor, far below the q+1-regular upper bound.
	mods := make(map[uint64]bool)
	for _, v := range vars {
		for _, j := range s.VarModules(nil, idx.Mat(v)) {
			mods[j] = true
		}
	}
	if len(mods) >= len(vars)*3/2 {
		t.Fatalf("subfield set expands too much to be a tightness witness: %d modules for %d vars",
			len(mods), len(vars))
	}
}

func TestSubfieldSetValidation(t *testing.T) {
	s, err := core.New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SubfieldSet(s, idx, 3); err == nil {
		t.Error("3 does not divide 5; expected error")
	}
}
