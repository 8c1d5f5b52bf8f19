package network

import (
	"math/rand"
	"testing"

	"detshmem/internal/mpc"
)

func TestNewHypercubeSizes(t *testing.T) {
	cases := []struct{ min, d, nodes int }{
		{1, 1, 2}, {2, 1, 2}, {3, 2, 4}, {100, 7, 128},
	}
	for _, c := range cases {
		h, err := NewHypercube(c.min)
		if err != nil {
			t.Fatal(err)
		}
		if h.D != c.d || h.Nodes != c.nodes {
			t.Errorf("NewHypercube(%d) = d=%d nodes=%d, want %d/%d",
				c.min, h.D, h.Nodes, c.d, c.nodes)
		}
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("zero nodes accepted")
	}
}

// TestHypercubeLatency: an uncontended packet takes exactly Hamming(s, t)
// steps under e-cube routing.
func TestHypercubeLatency(t *testing.T) {
	h, err := NewHypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := int64(rng.Intn(64))
		d := int64(rng.Intn(64))
		want := popcount(uint64(s ^ d))
		if got := h.RouteMakespan([]int64{s}, []int64{d}); got != want {
			t.Fatalf("packet %d->%d took %d steps, want Hamming distance %d", s, d, got, want)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestHypercubePermutation: a random permutation routes in O(D + overflow).
func TestHypercubePermutation(t *testing.T) {
	h, err := NewHypercube(256)
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
	got := h.RouteMakespan(src, dst)
	if got > 6*h.D {
		t.Fatalf("random permutation makespan %d too large (D=%d)", got, h.D)
	}
}

// TestHypercubeHotspot: all-to-one serializes on the destination's last
// in-link set: makespan >= packets/D.
func TestHypercubeHotspot(t *testing.T) {
	h, err := NewHypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	k := 48
	src := make([]int64, k)
	dst := make([]int64, k)
	for i := range src {
		src[i] = int64(i)
		dst[i] = 63
	}
	got := h.RouteMakespan(src, dst)
	if got < k/h.D {
		t.Fatalf("hotspot makespan %d below %d", got, k/h.D)
	}
}

// TestHypercubeReuse: state resets across calls.
func TestHypercubeReuse(t *testing.T) {
	h, err := NewHypercube(32)
	if err != nil {
		t.Fatal(err)
	}
	first := h.RouteMakespan([]int64{1, 2, 3}, []int64{30, 30, 30})
	for i := 0; i < 10; i++ {
		if got := h.RouteMakespan([]int64{1, 2, 3}, []int64{30, 30, 30}); got != first {
			t.Fatalf("call %d returned %d, first %d", i, got, first)
		}
	}
	if h.RouteMakespan(nil, nil) != 0 {
		t.Fatal("empty routing should cost 0")
	}
	// Self-addressed packets arrive instantly.
	if got := h.RouteMakespan([]int64{5}, []int64{5}); got != 0 {
		t.Fatalf("self packet took %d steps", got)
	}
}

// TestTopologyMachinesAgreeOnGrants: butterfly and hypercube machines must
// arbitrate identically (grants come from the inner MPC); only costs differ.
func TestTopologyMachinesAgreeOnGrants(t *testing.T) {
	cfg := mpc.Config{Procs: 80, Modules: 40}
	bm, err := NewMachineTopology(cfg, TopoButterfly)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := NewMachineTopology(cfg, TopoHypercube)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachineTopology(cfg, Topology(99)); err == nil {
		t.Error("unknown topology accepted")
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 25; round++ {
		bids := randomBids(rng, 80, 40, 3)
		g1 := make([]bool, len(bids))
		g2 := make([]bool, len(bids))
		if bm.Round(bids, g1) != hm.Round(bids, g2) {
			t.Fatal("served counts differ")
		}
		for p := range g1 {
			if g1[p] != g2[p] {
				t.Fatalf("grant[%d] differs across topologies", p)
			}
		}
	}
	if bm.Cost() == 0 || hm.Cost() == 0 {
		t.Fatal("costs not accumulated")
	}
}
