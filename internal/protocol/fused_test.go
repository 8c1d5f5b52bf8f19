package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// hidePlain wraps the plain MPC so that NewGenericSystem does not find it: every
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
// and two rounds, so the fused round is counted against it. The failing/
// cells play the same differential over mpc.Failing, whose phases open with
// the same firstRound under a fault view (fusedFailingMatrix).
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
					if fusedSys.inPlace == nil || genericSys.inPlace != nil {
						t.Fatalf("in-place machine found: fused %v, generic %v", fusedSys.inPlace != nil, genericSys.inPlace != nil)
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
	fusedFailingMatrix(t)
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
			compareFusedBatch(t, fused, generic, reqs, &fres, &gres)
		}
	}
	for v := range touched {
		if f, g := fused.CopyState(v), generic.CopyState(v); !reflect.DeepEqual(f, g) {
			t.Fatalf("variable %d: fused copies %v, generic %v", v, f, g)
		}
	}
}

// hideFailing wraps mpc.Failing so that NewGenericSystem does not find it while
// its fault and repair views still pass through: a System over it plays every
// round, a phase's first included, on the generic path.
type hideFailing struct{ *mpc.Failing }

// scriptedRecorder traces its system's rounds and, after each, runs the
// scenario's mutation script on the system's own fault set, counting rounds
// over the system's whole stream, repair waves included. Both paths call the
// recorder synchronously as a round closes, so two systems that play the same
// rounds see the same mutations at the same point.
type scriptedRecorder struct {
	*obs.Tracer
	fs     *mpc.FaultSet
	rounds int
	script func(round int, fs *mpc.FaultSet)
}

func (r *scriptedRecorder) RecordRound(ev obs.RoundEvent) {
	r.Tracer.RecordRound(ev)
	r.rounds++
	if r.script != nil {
		r.script(r.rounds, r.fs)
	}
}

// failingScenario sets one fault scenario up on fs, for the stream over m, and
// returns its per-round mutation script (nil when the set holds still):
//   - healthy: nothing fails;
//   - static: a sixteenth of the modules and every copy of the victims fail;
//   - repairing: an eighth of the modules come back for repair, and a
//     thirty-second beside them fail, so a request can have a copy in each —
//     a ReadWrite then reaches its write quorum but not its read quorum;
//   - flip: modules fail and come back for repair between rounds, a single one
//     every few rounds and a quarter of them at rounds 5 and 20.
func failingScenario(m Mapper, scenario string, victims []uint64, fs *mpc.FaultSet) func(int, *mpc.FaultSet) {
	n := uint64(m.NumModules())
	lo, hi := n/2, n/2+max(n/4, 1)
	switch scenario {
	case "static":
		fs.FailRange(lo, lo+max(n/16, 1))
		for _, v := range victims {
			for c := 0; c < m.Copies(); c++ {
				mod, _ := m.CopyAddr(v, c)
				fs.Fail(mod)
			}
		}
	case "repairing":
		fs.FailRange(n/4, n/4+max(n/8, 1))
		fs.RecoverPendingRange(n/4, n/4+max(n/8, 1))
		fs.FailRange(lo, lo+max(n/32, 1))
	case "flip":
		return func(round int, fs *mpc.FaultSet) {
			switch {
			case round == 5:
				fs.FailRange(lo, hi)
			case round == 20:
				fs.RecoverPendingRange(lo, hi)
			case round%7 == 3:
				fs.Fail(uint64(round) * 7919 % n)
			case round%7 == 6:
				fs.RecoverPending(uint64(round-3) * 7919 % n)
			}
		}
	}
	return nil
}

// fusedFailingMatrix is TestFusedRoundMatchesGeneric's differential over
// mpc.Failing: a bare one, where a phase's first round is firstRound's one
// pass under a fault snapshot, against the same machine wrapped
// (hideFailing), where selectPhase, round and decide play it. Both run the same
// seeded stream of Read, Write and ReadWrite batches, each over its own fault
// set driven by the same scenario, and must agree batch by batch on values,
// metrics, errors and interconnect cost, and at the end on every round's
// obs.RoundEvent, the dropped bids, every copy's timestamps and the fault
// sets' epochs. In the static scenario one batch holds only victims, every
// copy of which failed: no request of it can bid, so it must play no round
// and leave the machine's cost as it was. Each cell also runs with the
// iteration bound at two rounds and TraceLive, so the retry pass serves the
// phases' leftovers. The matrix is q=2 n=5/7, q=4 n=3 and Mehlhorn–Vishkin
// with two copies, under the four scenarios of failingScenario.
func fusedFailingMatrix(t *testing.T) {
	type mcase struct {
		name string
		m    Mapper
	}
	var mappers []mcase
	for _, mn := range [][2]int{{1, 5}, {1, 7}, {2, 3}} {
		s, err := core.New(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		idx, err := s.NewIndexer()
		if err != nil {
			t.Fatal(err)
		}
		mappers = append(mappers, mcase{fmt.Sprintf("q=%d/n=%d", s.Q, mn[1]), NewCoreMapper(s, idx)})
	}
	mv, err := baseline.NewMV(64, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	mappers = append(mappers, mcase{"mv-c2", mv})
	if testing.Short() {
		mappers = append(mappers[:1], mappers[2:]...)
	}
	for _, mc := range mappers {
		table := compileTable(t, mc.m)
		for _, scenario := range []string{"healthy", "static", "repairing", "flip"} {
			for _, mode := range []struct {
				name    string
				maxIter int
			}{{"plain", 0}, {"maxiter=2", 2}} {
				t.Run("failing/"+mc.name+"/"+scenario+"/"+mode.name, func(t *testing.T) {
					compareFailingStream(t, mc.m, table, scenario, mode.maxIter)
				})
			}
		}
	}
}

// failingSide is one system of the differential pair and its fault set.
type failingSide struct {
	sys *System
	fs  *mpc.FaultSet
	rec *scriptedRecorder
}

func newFailingSide(t *testing.T, m Mapper, table *CompiledResolver, scenario string, victims []uint64, maxIter int, wrap bool) *failingSide {
	t.Helper()
	side := &failingSide{fs: mpc.NewFaultSet()}
	side.rec = &scriptedRecorder{Tracer: obs.NewTracer(1 << 17), fs: side.fs}
	side.rec.script = failingScenario(m, scenario, victims, side.fs)
	cfg := Config{Resolver: table, Recorder: side.rec, TraceLive: maxIter > 0, NewMachine: benchMachine(side.fs, wrap)}
	sys, err := NewGenericSystem(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if maxIter > 0 {
		sys.maxIter = maxIter
	}
	side.sys = sys
	return side
}

// failingBatch draws size distinct variables: half reads, three tenths
// writes, a fifth read-writes.
func failingBatch(rng *rand.Rand, numVars uint64, size int, touched map[uint64]bool) []Request {
	reqs := digestBatch(rng, numVars, size, touched)
	for i := range reqs {
		switch k := rng.Intn(10); {
		case k < 5:
			reqs[i] = Request{Var: reqs[i].Var}
		case k < 8:
			reqs[i].Op, reqs[i].Value = Write, rng.Uint64()|1
		default:
			reqs[i].Op, reqs[i].Value = ReadWrite, rng.Uint64()|1
		}
	}
	return reqs
}

// compareFailingStream runs one cell of fusedFailingMatrix.
func compareFailingStream(t *testing.T, m Mapper, table *CompiledResolver, scenario string, maxIter int) {
	n := int(m.NumModules())
	c := m.Copies()
	perPhase := max(n/(c*c*c), 1)
	rng := rand.New(rand.NewSource(int64(n) + int64(len(scenario))))
	touched := map[uint64]bool{}
	victims := failingBatch(rng, m.NumVars(), 3, touched)
	vars := make([]uint64, len(victims))
	for i, rq := range victims {
		vars[i] = rq.Var
	}
	fused := newFailingSide(t, m, table, scenario, vars, maxIter, false)
	generic := newFailingSide(t, m, table, scenario, vars, maxIter, true)

	var fres, gres Result
	var refused, stranded, retried int
	for pass := 0; pass < 2; pass++ {
		for _, size := range []int{n, 1, 64, 100, perPhase, perPhase + 1, 4096} {
			reqs := failingBatch(rng, m.NumVars(), min(size, n), touched)
			compareFusedBatch(t, fused.sys, generic.sys, reqs, &fres, &gres)
			refused += len(fres.Metrics.ReadRefused)
			stranded += len(fres.Metrics.Stranded)
			retried += fres.Metrics.RetriedBids
		}
		if scenario != "static" {
			continue
		}
		// The all-stranded batch.
		cost := fused.sys.machine.Cost()
		compareFusedBatch(t, fused.sys, generic.sys, victims, &fres, &gres)
		met := &fres.Metrics
		if met.TotalRounds != 0 || fused.sys.machine.Cost() != cost || len(met.Stranded) != len(victims) {
			t.Fatalf("all-stranded batch: %d rounds, cost %d → %d, %d of %d stranded; want 0 rounds, the cost unchanged, all stranded",
				met.TotalRounds, cost, fused.sys.machine.Cost(), len(met.Stranded), len(victims))
		}
	}

	// The scenarios must reach what they are there for.
	if scenario == "static" && stranded == 0 || scenario == "repairing" && refused == 0 ||
		scenario == "flip" && (fused.fs.Epoch() == 0 || stranded+refused+retried == 0) {
		t.Fatalf("%s: %d stranded, %d read-refused, %d retried bids", scenario, stranded, refused, retried)
	}
	if f, _ := fused.sys.machine.(*mpc.Failing); f == nil || fused.sys.inPlace != f.InPlace() || generic.sys.inPlace != nil {
		t.Fatalf("bare Failing found: fused %v, generic %v", fused.sys.inPlace != nil, generic.sys.inPlace != nil)
	}
	if fused.rec.Dropped() > 0 || generic.rec.Dropped() > 0 {
		t.Fatal("trace ring overflowed; raise its capacity")
	}
	fe, ge := fused.rec.Events(), generic.rec.Events()
	if len(fe) != len(ge) {
		t.Fatalf("%d fused round events, %d generic", len(fe), len(ge))
	}
	for i := range fe {
		if fe[i] != ge[i] {
			t.Fatalf("round %d: fused %+v, generic %+v", i, fe[i], ge[i])
		}
	}
	fd := fused.sys.machine.(*mpc.Failing).DroppedBids()
	gd := generic.sys.machine.(hideFailing).DroppedBids()
	if fd != gd {
		t.Fatalf("dropped bids: fused %d, generic %d", fd, gd)
	}
	if fe, ge := fused.fs.Epoch(), generic.fs.Epoch(); fe != ge {
		t.Fatalf("fault epochs: fused %d, generic %d", fe, ge)
	}
	for v := range touched {
		if f, g := fused.sys.CopyState(v), generic.sys.CopyState(v); !reflect.DeepEqual(f, g) {
			t.Fatalf("variable %d: fused copies %v, generic %v", v, f, g)
		}
	}
}

// compareFusedBatch serves one batch on both systems and compares their
// values, metrics, errors and interconnect cost.
func compareFusedBatch(t *testing.T, fused, generic *System, reqs []Request, fres, gres *Result) {
	t.Helper()
	ferr := fused.AccessInto(reqs, fres)
	gerr := generic.AccessInto(reqs, gres)
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
