package network

import (
	"math/rand"
	"testing"

	"detshmem/internal/mpc"
)

func TestNewButterflySizes(t *testing.T) {
	cases := []struct{ min, d, rows int }{
		{1, 1, 2}, {2, 1, 2}, {3, 2, 4}, {4, 2, 4}, {5, 3, 8}, {1000, 10, 1024},
	}
	for _, c := range cases {
		b, err := NewButterfly(c.min)
		if err != nil {
			t.Fatal(err)
		}
		if b.D != c.d || b.Rows != c.rows {
			t.Errorf("NewButterfly(%d) = d=%d rows=%d, want d=%d rows=%d",
				c.min, b.D, b.Rows, c.d, c.rows)
		}
	}
	if _, err := NewButterfly(0); err == nil {
		t.Error("zero rows accepted")
	}
}

// TestSinglePacketLatency: an uncontended packet takes exactly D steps
// (one hop per level).
func TestSinglePacketLatency(t *testing.T) {
	b, err := NewButterfly(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		s := int64(rng.Intn(64))
		d := int64(rng.Intn(64))
		if got := b.RouteMakespan([]int64{s}, []int64{d}); got != b.D {
			t.Fatalf("single packet %d->%d took %d steps, want %d", s, d, got, b.D)
		}
	}
}

// TestPermutationMakespan: a random permutation routes in O(D + overflow);
// for modest sizes it should finish well under 4·D.
func TestPermutationMakespan(t *testing.T) {
	b, err := NewButterfly(256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(256)
	src := make([]int64, 256)
	dst := make([]int64, 256)
	for i := range perm {
		src[i] = int64(i)
		dst[i] = int64(perm[i])
	}
	got := b.RouteMakespan(src, dst)
	if got < b.D {
		t.Fatalf("makespan %d below diameter %d", got, b.D)
	}
	if got > 4*b.D {
		t.Fatalf("random permutation makespan %d too large (D=%d)", got, b.D)
	}
}

// TestHotspotMakespan: all packets to one destination serialize on the last
// link: makespan >= packets.
func TestHotspotMakespan(t *testing.T) {
	b, err := NewButterfly(64)
	if err != nil {
		t.Fatal(err)
	}
	k := 32
	src := make([]int64, k)
	dst := make([]int64, k)
	for i := range src {
		src[i] = int64(i)
		dst[i] = 7
	}
	got := b.RouteMakespan(src, dst)
	if got < k {
		t.Fatalf("hotspot makespan %d < %d packets", got, k)
	}
	if got > k+b.D {
		t.Fatalf("hotspot makespan %d exceeds packets+diameter %d", got, k+b.D)
	}
}

// TestReuseAcrossCalls: the butterfly's queue state resets properly between
// routing calls.
func TestReuseAcrossCalls(t *testing.T) {
	b, err := NewButterfly(32)
	if err != nil {
		t.Fatal(err)
	}
	first := b.RouteMakespan([]int64{0, 1, 2}, []int64{5, 5, 5})
	for i := 0; i < 10; i++ {
		if got := b.RouteMakespan([]int64{0, 1, 2}, []int64{5, 5, 5}); got != first {
			t.Fatalf("call %d returned %d, first returned %d (stale state?)", i, got, first)
		}
	}
	if b.RouteMakespan(nil, nil) != 0 {
		t.Fatal("empty routing should cost 0")
	}
}

// TestMachineGrantsMatchMPC: the network machine must arbitrate identically
// to the raw MPC; only the cost differs.
func TestMachineGrantsMatchMPC(t *testing.T) {
	cfg := mpc.Config{Procs: 100, Modules: 64}
	raw, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 30; round++ {
		bids := randomBids(rng, 100, 64, 4)
		g1 := make([]bool, len(bids))
		g2 := make([]bool, len(bids))
		if raw.Round(bids, g1) != nm.Round(bids, g2) {
			t.Fatal("served counts differ")
		}
		for p := range g1 {
			if g1[p] != g2[p] {
				t.Fatalf("grant[%d] differs", p)
			}
		}
	}
	// Cost accounting: the network charges at least the diameter per
	// non-empty round, strictly more than the MPC's unit cost.
	if nm.Cost() <= raw.Cost() {
		t.Fatalf("network cost %d should exceed MPC cost %d", nm.Cost(), raw.Cost())
	}
	if nm.Dimension() != 7 { // 100 procs -> 128 rows
		t.Fatalf("dimension = %d, want 7", nm.Dimension())
	}
}
