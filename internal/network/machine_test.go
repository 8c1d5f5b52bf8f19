package network

import (
	"math/rand"
	"testing"

	"detshmem/internal/mpc"
)

// randomBids draws one round's bid list: each of procs processors bids,
// except with probability 1/idleOdds, at a random module, in ascending
// processor order.
func randomBids(rng *rand.Rand, procs, modules, idleOdds int) []int64 {
	var bids []int64
	for p := 0; p < procs; p++ {
		if rng.Intn(idleOdds) != 0 {
			bids = append(bids, mpc.Bid(p, int64(rng.Intn(modules))))
		}
	}
	return bids
}

// TestListCostMatchesPlaced: a bid is routed from its processor's endpoint,
// not from its position in the list, so a round's live bids cost exactly what
// the same bids cost placed at their processors' positions (Idle between) —
// and are granted alike.
func TestListCostMatchesPlaced(t *testing.T) {
	const procs, modules = 96, 50
	for _, topo := range []Topology{TopoButterfly, TopoHypercube} {
		cfg := mpc.Config{Procs: procs, Modules: modules}
		list, err := NewMachineTopology(cfg, topo)
		if err != nil {
			t.Fatal(err)
		}
		placed, err := NewMachineTopology(cfg, topo)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 40; round++ {
			bids := randomBids(rng, procs, modules, 1+round%4)
			spread := make([]int64, procs)
			for p := range spread {
				spread[p] = mpc.Idle
			}
			for _, b := range bids {
				spread[mpc.BidProc(b)] = b
			}
			g1, g2 := make([]bool, len(bids)), make([]bool, procs)
			before1, before2 := list.Cost(), placed.Cost()
			if list.Round(bids, g1) != placed.Round(spread, g2) {
				t.Fatalf("%v round %d: served counts differ", topo, round)
			}
			if c1, c2 := list.Cost()-before1, placed.Cost()-before2; c1 != c2 {
				t.Fatalf("%v round %d: %d live bids cost %d link steps, placed at their processors %d", topo, round, len(bids), c1, c2)
			}
			for i, b := range bids {
				if g1[i] != g2[mpc.BidProc(b)] {
					t.Fatalf("%v round %d: processor %d granted %v in the list, %v placed", topo, round, mpc.BidProc(b), g1[i], g2[mpc.BidProc(b)])
				}
			}
		}
		if list.Cost() == 0 {
			t.Fatalf("%v: no routing cost charged", topo)
		}
	}
}
