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

// randomGrant is the grant-order oracle: a machine whose modules each serve
// a seeded-random bidder instead of the lowest one. The paper's machine only
// says a module serves at most one request per step, and the
// timestamped-majority rule must return the same values whoever that is; the
// product machine fixes lowest-processor-wins, so this one exists to keep the
// protocol from coming to depend on it. Round counts legitimately differ.
type randomGrant struct {
	rng     *rand.Rand
	bidders [][]int // per module, the list positions of this round's bids
	touched []int64
	rounds  uint64
}

func newRandomGrant(seed int64) func(mpc.Config) (Machine, error) {
	return func(cfg mpc.Config) (Machine, error) {
		return &randomGrant{rng: rand.New(rand.NewSource(seed)), bidders: make([][]int, cfg.Modules)}, nil
	}
}

func (m *randomGrant) Cost() uint64 { return m.rounds }

func (m *randomGrant) Round(bids []int64, grant []bool) int {
	m.touched = m.touched[:0]
	for i, b := range bids {
		grant[i] = false
		mod := mpc.BidModule(b)
		if len(m.bidders[mod]) == 0 {
			m.touched = append(m.touched, mod)
		}
		m.bidders[mod] = append(m.bidders[mod], i)
	}
	for _, mod := range m.touched {
		grant[m.bidders[mod][m.rng.Intn(len(m.bidders[mod]))]] = true
		m.bidders[mod] = m.bidders[mod][:0]
	}
	m.rounds++
	return len(m.touched)
}

// TestDifferentialStress cross-checks every protocol configuration axis
// (grant order × resolver × interconnect) against a plain reference model
// over long mixed batch sequences. All configurations must produce identical
// *values* (metrics legitimately differ), and no round may carry a bid for a
// request whose quorum completed (checkInFlight). The two random-grant rows
// differ in seed only: five rows keep the subtest ids the committed test
// floor lists.
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
		{NewMachine: newRandomGrant(5)},
		{NewMachine: newRandomGrant(17)},
		{Resolver: compileTable(t, NewCoreMapper(s, idx))},
		{NewMachine: func(cfg mpc.Config) (Machine, error) {
			return network.NewMachineTopology(cfg, network.TopoHypercube)
		}},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			t.Parallel()
			var sys *System
			sys, err := NewSystem(s, idx, checkInFlight(t, cfg, &sys))
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
