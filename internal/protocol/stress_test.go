package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/network"
	"detshmem/internal/workload"
)

// TestDifferentialStress cross-checks every protocol configuration axis
// (policy × arbiter × cluster size × resolver × interconnect) against a plain
// reference model over long mixed batch sequences. All configurations must
// produce identical *values* (metrics legitimately differ).
func TestDifferentialStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s, err := core.New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{},
		{Arb: mpc.ArbRoundRobin},
		{Arb: mpc.ArbRandom, Seed: 17},
		{Resolver: compileTable(t, NewCoreMapper(s, idx))},
		{NewMachine: func(cfg mpc.Config) (Machine, error) {
			return network.NewMachineTopology(cfg, network.TopoHypercube)
		}},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			t.Parallel()
			sys, err := NewSystem(s, idx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			for batch := 0; batch < 60; batch++ {
				k := 1 + rng.Intn(int(s.NumModules))
				vars := workload.DistinctRandom(rng, idx.M(), k)
				var reqs []Request
				for _, v := range vars {
					if rng.Intn(3) == 0 {
						reqs = append(reqs, Request{Var: v, Op: Read})
					} else {
						reqs = append(reqs, Request{Var: v, Op: Write, Value: rng.Uint64()})
					}
				}
				res, err := sys.Access(reqs)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				for i, r := range reqs {
					if r.Op == Read && res.Values[i] != ref[r.Var] {
						t.Fatalf("batch %d: read %d = %d, want %d",
							batch, r.Var, res.Values[i], ref[r.Var])
					}
				}
				for _, r := range reqs {
					if r.Op == Write {
						ref[r.Var] = r.Value
					}
				}
				// Universal metric invariants.
				m := res.Metrics
				if m.TotalRounds <= 0 || m.MaxIterations <= 0 {
					t.Fatalf("batch %d: degenerate metrics %+v", batch, m)
				}
				if m.CopyAccesses < len(reqs)*s.Majority {
					t.Fatalf("batch %d: %d copy accesses below quorum minimum", batch, m.CopyAccesses)
				}
				if m.InterconnectCost < uint64(m.TotalRounds) {
					t.Fatalf("batch %d: interconnect cost %d below round count %d",
						batch, m.InterconnectCost, m.TotalRounds)
				}
			}
		})
	}
}
