package protocol

import (
	"fmt"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
)

// denyCopyZero is a scripted machine: in the one round after it is armed it
// denies the bid of every cluster's first processor — copy 0 of each request
// of a phase — and grants every other bid; any other round grants every bid.
// A batch's variables are distinct, so granting every bid still touches
// distinct cells.
type denyCopyZero struct {
	copies int
	armed  bool
	rounds uint64
}

func (m *denyCopyZero) Cost() uint64 { return m.rounds }

func (m *denyCopyZero) Round(bids []int64, grant []bool) int {
	served := 0
	for i, b := range bids {
		grant[i] = !m.armed || mpc.BidProc(b)%m.copies != 0
		if grant[i] {
			served++
		}
	}
	m.armed = false
	m.rounds++
	return served
}

// TestQuorumCancelsSameRoundBids pins cancel-at-quorum at round granularity:
// copy 0 of every request loses the first round and the other copies win it,
// which completes every quorum in that round. The losing bids must be
// cancelled there — one round per batch, Copies bids per request — instead
// of riding into a second round that serves nothing.
func TestQuorumCancelsSameRoundBids(t *testing.T) {
	for _, sc := range []struct{ m, n int }{{1, 5}, {2, 3}} {
		s, err := core.New(sc.m, sc.n)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("q=%d,n=%d", s.Q, sc.n), func(t *testing.T) {
			idx, err := s.NewIndexer()
			if err != nil {
				t.Fatal(err)
			}
			mach := &denyCopyZero{copies: s.Copies}
			sys, err := NewSystem(s, idx, Config{
				TraceLive:  true,
				NewMachine: func(mpc.Config) (Machine, error) { return mach, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			c := s.Copies
			n := int(s.NumModules) / (c * c * c) // the largest one-phase batch
			vars := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range vars {
				vars[i] = uint64(i) * 7
				vals[i] = uint64(i) + 1000
			}
			check := func(op string, met *Metrics, quorum int) {
				t.Helper()
				if met.Phases != 1 || met.TotalRounds != 1 {
					t.Fatalf("%s: %d phases, %d rounds, want 1 and 1", op, met.Phases, met.TotalRounds)
				}
				if met.IssuedBids != c*n || met.GrantedBids != (c-1)*n || met.CopyAccesses != quorum*n {
					t.Fatalf("%s of %d: issued %d, granted %d, accessed %d; want %d, %d, %d",
						op, n, met.IssuedBids, met.GrantedBids, met.CopyAccesses, c*n, (c-1)*n, quorum*n)
				}
				if len(met.LiveTrace) != 1 || len(met.LiveTrace[0]) != 1 || met.LiveTrace[0][0] != 0 {
					t.Fatalf("%s: live trace %v, want [[0]]", op, met.LiveTrace)
				}
			}
			mach.armed = true
			met, err := sys.WriteBatch(vars, vals)
			if err != nil {
				t.Fatal(err)
			}
			check("write", met, sys.Mapper.WriteQuorum())
			mach.armed = true
			got, met, err := sys.ReadBatch(vars)
			if err != nil {
				t.Fatal(err)
			}
			check("read", met, sys.Mapper.ReadQuorum())
			for i, v := range vars {
				if got[i] != vals[i] {
					t.Fatalf("var %d read %d, wrote %d", v, got[i], vals[i])
				}
			}
		})
	}
}

// inFlightCheck wraps a system's machine and checks every round's bid list
// against the system's books before playing it. A round's bids are the
// in-flight task list; after a batch's, wave's or phase's first round they
// are the previous round's survivors, and none may belong to a request whose
// quorum already completed.
type inFlightCheck struct {
	Machine
	t   testing.TB
	sys **System
}

// checkInFlight returns cfg with every machine it builds wrapped in an
// inFlightCheck against *sys, which the caller sets to the System built from
// the returned Config. The wrapper hides the plain MPC, so a System built this
// way plays every round, a phase's first included, on the generic path;
// TestFusedRoundMatchesGeneric carries the check over to firstRound.
func checkInFlight(t testing.TB, cfg Config, sys **System) Config {
	build := cfg.NewMachine
	if build == nil {
		build = func(mcfg mpc.Config) (Machine, error) { return mpc.New(mcfg) }
	}
	cfg.NewMachine = func(mcfg mpc.Config) (Machine, error) {
		m, err := build(mcfg)
		if err != nil {
			return nil, err
		}
		return inFlightCheck{Machine: m, t: t, sys: sys}, nil
	}
	return cfg
}

func (m inFlightCheck) Round(bids []int64, grant []bool) int {
	sys := *m.sys
	for i, tk := range sys.tasks[:len(bids)] {
		if bids[i] != mpc.Bid(int(tk.proc), tk.cp.module()) {
			m.t.Fatalf("bid %d of the round is not in-flight task %d", i, i)
		}
		if r := tk.req; sys.remaining[r] <= 0 {
			m.t.Fatalf("bid %d (processor %d) is in flight for request %d, whose quorum completed", i, tk.proc, r)
		}
	}
	return m.Machine.Round(bids, grant)
}
