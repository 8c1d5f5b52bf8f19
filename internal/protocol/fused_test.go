package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// hidePlain wraps the plain MPC so that obtainMachine does not find it: every
// round of a System over it, a phase's first included, takes the generic
// selectPhase → round → Machine.Round path.
type hidePlain struct{ Machine }

func genericMachine(cfg mpc.Config) (Machine, error) {
	m, err := mpc.New(cfg)
	if err != nil {
		return nil, err
	}
	return hidePlain{m}, nil
}

// TestFusedRoundMatchesGeneric plays one seeded stream of batches through two
// Systems that differ only in whether the machine is the plain MPC, so a
// phase's first round is played in place (firstRound), or a wrapped one. The
// two must agree on every batch's values, metrics, error and interconnect
// cost, on every round's obs.RoundEvent and on every copy's timestamp. Equal
// per-round Requests is what carries the cancel-at-quorum check
// (checkInFlight, which wraps the machine) over to the fused round: a bid kept
// in flight for a completed request would be one more request in the next
// round. The matrix covers q=2 with n=5 and n=7 and q=4 with n=3, the table
// and the computed resolver, and the batch sizes around the phase rule; each
// cell also runs with TraceLive and with the iteration bound lowered to one
// and two rounds, so the fused round is counted against it.
func TestFusedRoundMatchesGeneric(t *testing.T) {
	schemes := [][2]int{{1, 5}, {1, 7}, {2, 3}}
	if testing.Short() {
		schemes = [][2]int{{1, 5}, {2, 3}}
	}
	for _, mn := range schemes {
		s, err := core.New(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		idx, err := s.NewIndexer()
		if err != nil {
			t.Fatal(err)
		}
		mapper := NewCoreMapper(s, idx)
		table := compileTable(t, mapper)
		for _, resolver := range []string{"table", "computed"} {
			for _, mode := range []struct {
				name      string
				traceLive bool
				maxIter   int
			}{{"plain", false, 0}, {"tracelive", true, 0}, {"maxiter=1", false, 1}, {"maxiter=2", true, 2}} {
				name := fmt.Sprintf("q=%d/n=%d/%s/%s", s.Q, mn[1], resolver, mode.name)
				t.Run(name, func(t *testing.T) {
					cfg := Config{TraceLive: mode.traceLive}
					if resolver == "table" {
						cfg.Resolver = table
					} else {
						cfg.Strategy = ResolverComputed
					}
					fusedSys, fusedTrace := fusedPairSystem(t, mapper, cfg, mode.maxIter)
					cfg.NewMachine = genericMachine
					genericSys, genericTrace := fusedPairSystem(t, mapper, cfg, mode.maxIter)
					compareFusedStream(t, fusedSys, genericSys)
					if fusedSys.plain == nil || genericSys.plain != nil {
						t.Fatalf("plain machine found: fused %v, generic %v", fusedSys.plain != nil, genericSys.plain != nil)
					}
					if fusedTrace.Dropped() > 0 || genericTrace.Dropped() > 0 {
						t.Fatal("trace ring overflowed; raise its capacity")
					}
					fe, ge := fusedTrace.Events(), genericTrace.Events()
					if len(fe) != len(ge) {
						t.Fatalf("%d fused round events, %d generic", len(fe), len(ge))
					}
					for i := range fe {
						if fe[i] != ge[i] {
							t.Fatalf("round %d: fused %+v, generic %+v", i, fe[i], ge[i])
						}
					}
				})
			}
		}
	}
}

// fusedPairSystem builds one side of the differential pair with its own
// round tracer.
func fusedPairSystem(t *testing.T, m Mapper, cfg Config, maxIter int) (*System, *obs.Tracer) {
	t.Helper()
	tr := obs.NewTracer(1 << 16)
	cfg.Recorder = tr
	sys, err := NewGenericSystem(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if maxIter > 0 {
		sys.maxIter = maxIter
	}
	return sys, tr
}

// compareFusedStream plays the seeded stream through both systems and
// compares them batch by batch, then copy by copy.
func compareFusedStream(t *testing.T, fused, generic *System) {
	t.Helper()
	n := int(fused.Mapper.NumModules())
	c := fused.Mapper.Copies()
	perPhase := max(n/(c*c*c), 1)
	rng := rand.New(rand.NewSource(int64(n)))
	touched := map[uint64]bool{}
	var fres, gres Result
	for pass := 0; pass < 2; pass++ {
		for _, size := range []int{1, 64, 100, perPhase, perPhase + 1, 4096, n} {
			reqs := digestBatch(rng, fused.Mapper.NumVars(), min(size, n), touched)
			ferr := fused.AccessInto(reqs, &fres)
			gerr := generic.AccessInto(reqs, &gres)
			if (ferr == nil) != (gerr == nil) || ferr != nil && ferr.Error() != gerr.Error() {
				t.Fatalf("batch of %d: fused error %v, generic %v", len(reqs), ferr, gerr)
			}
			if ferr != nil && !errors.Is(ferr, ErrIncomplete) {
				t.Fatalf("batch of %d: %v", len(reqs), ferr)
			}
			if !reflect.DeepEqual(fres.Values, gres.Values) {
				t.Fatalf("batch of %d: values differ", len(reqs))
			}
			if !reflect.DeepEqual(fres.Metrics, gres.Metrics) {
				t.Fatalf("batch of %d: fused metrics %+v, generic %+v", len(reqs), fres.Metrics, gres.Metrics)
			}
			if fc, gc := fused.machine.Cost(), generic.machine.Cost(); fc != gc {
				t.Fatalf("batch of %d: fused cost %d, generic %d", len(reqs), fc, gc)
			}
		}
	}
	for v := range touched {
		if f, g := fused.CopyState(v), generic.CopyState(v); !reflect.DeepEqual(f, g) {
			t.Fatalf("variable %d: fused copies %v, generic %v", v, f, g)
		}
	}
}
