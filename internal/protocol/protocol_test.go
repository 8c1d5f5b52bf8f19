package protocol

import (
	"math/rand"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
)

func newSystem(t testing.TB, m, n int, cfg Config) *System {
	t.Helper()
	s, err := core.New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(s, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// compileTable compiles m's dense table.
func compileTable(t testing.TB, m Mapper) *CompiledResolver {
	t.Helper()
	r, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// tableOrNil compiles m's table when m has one — only the PP93 mapper does —
// and returns nil for a baseline, which resolves live.
func tableOrNil(t testing.TB, m Mapper) *CompiledResolver {
	t.Helper()
	if _, ok := m.(*coreMapper); !ok {
		return nil
	}
	return compileTable(t, m)
}

func TestWriteThenRead(t *testing.T) {
	for _, c := range []struct{ m, n int }{{1, 3}, {1, 5}, {2, 3}} {
		sys := newSystem(t, c.m, c.n, Config{})
		vars := []uint64{0, 1, 5, 17, 33}
		vals := []uint64{100, 200, 300, 400, 500}
		if _, err := sys.WriteBatch(vars, vals); err != nil {
			t.Fatal(err)
		}
		got, _, err := sys.ReadBatch(vars)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vars {
			if got[i] != vals[i] {
				t.Fatalf("q=%d n=%d: read var %d = %d, want %d", sys.Scheme.Q, c.n, vars[i], got[i], vals[i])
			}
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	sys := newSystem(t, 1, 3, Config{})
	got, _, err := sys.ReadBatch([]uint64{3, 7, 80})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("unwritten variable read %d at %d", v, i)
		}
	}
}

// TestMajorityInvariant: the paper's central consistency property. A write
// touches exactly q/2+1 copies; q/2 copies stay stale; yet every subsequent
// read (which also touches only a majority) returns the new value.
func TestMajorityInvariant(t *testing.T) {
	for _, c := range []struct{ m, n int }{{1, 5}, {2, 3}} {
		sys := newSystem(t, c.m, c.n, Config{})
		v := uint64(42)
		if _, err := sys.WriteBatch([]uint64{v}, []uint64{777}); err != nil {
			t.Fatal(err)
		}
		ts := sys.CopyState(v)
		fresh := 0
		for _, x := range ts {
			if x != 0 {
				fresh++
			}
		}
		if fresh != sys.Scheme.Majority {
			t.Fatalf("q=%d: write touched %d copies, want exactly majority %d", sys.Scheme.Q, fresh, sys.Scheme.Majority)
		}
		// Repeat reads: every majority choice must return 777.
		for trial := 0; trial < 5; trial++ {
			got, _, err := sys.ReadBatch([]uint64{v})
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 777 {
				t.Fatalf("stale read: got %d", got[0])
			}
		}
	}
}

// TestReferenceModel runs a long random sequence of mixed batches against a
// plain map and checks every read — on the product machine and on one that
// grants a random bidder per module (see randomGrant). Grant order may move
// round counts, never an outcome: both systems commit every batch, return
// the same values, and leave every variable's newest timestamp the same and
// on a write quorum of its copies. On both, no round may carry a bid for a
// request whose quorum completed (checkInFlight). That check wraps the
// machine, which sends every round down the generic path, so a third system
// over the bare plain machine, whose phases open with firstRound, must match
// the reference and leave the lowest-wins system's timestamps.
func TestReferenceModel(t *testing.T) {
	var lowest, random *System
	lowest = newSystem(t, 1, 5, checkInFlight(t, Config{}, &lowest))
	random = newSystem(t, 1, 5, checkInFlight(t, Config{NewMachine: newRandomGrant(5)}, &random))
	fused := newSystem(t, 1, 5, Config{})
	newest := func(sys *System, v uint64) (ts uint64, holders int) {
		for _, c := range sys.CopyState(v) {
			switch {
			case c > ts:
				ts, holders = c, 1
			case c == ts:
				holders++
			}
		}
		return ts, holders
	}
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(77))
	M := lowest.Index.M()
	for batch := 0; batch < 40; batch++ {
		k := 1 + rng.Intn(200)
		chosen := make(map[uint64]bool, k)
		var reqs []Request
		for len(chosen) < k {
			v := uint64(rng.Intn(int(M)))
			if chosen[v] {
				continue
			}
			chosen[v] = true
			if rng.Intn(2) == 0 {
				reqs = append(reqs, Request{Var: v, Op: Write, Value: rng.Uint64()})
			} else {
				reqs = append(reqs, Request{Var: v, Op: Read})
			}
		}
		for si, sys := range []*System{lowest, random, fused} {
			name := [...]string{"lowest", "random", "fused"}[si]
			res, err := sys.Access(reqs)
			if err != nil || len(res.Metrics.Unfinished) != 0 {
				t.Fatalf("%s batch %d: err %v, unfinished %v", name, batch, err, res.Metrics.Unfinished)
			}
			for i, r := range reqs {
				if r.Op == Read && res.Values[i] != ref[r.Var] {
					t.Fatalf("%s batch %d: read %d = %d, want %d", name, batch, r.Var, res.Values[i], ref[r.Var])
				}
			}
		}
		for _, r := range reqs {
			if r.Op == Write {
				ref[r.Var] = r.Value
			}
			wantTS, _ := newest(lowest, r.Var)
			if fusedTS, _ := newest(fused, r.Var); fusedTS != wantTS {
				t.Fatalf("batch %d var %d: fused round left timestamp %d, generic %d", batch, r.Var, fusedTS, wantTS)
			}
			gotTS, holders := newest(random, r.Var)
			if gotTS != wantTS || (gotTS > 0 && holders < random.Mapper.WriteQuorum()) {
				t.Fatalf("batch %d var %d: random grants left timestamp %d on %d copies, lowest-wins left %d (write quorum %d)",
					batch, r.Var, gotTS, holders, wantTS, random.Mapper.WriteQuorum())
			}
		}
	}
}

// TestFullBatch drives a complete N-request batch (the Theorem 1 workload)
// and sanity-checks the metrics.
func TestFullBatch(t *testing.T) {
	sys := newSystem(t, 1, 5, Config{TraceLive: true})
	N := int(sys.Scheme.NumModules)
	vars := make([]uint64, N)
	vals := make([]uint64, N)
	for i := range vars {
		vars[i] = uint64(i)
		vals[i] = uint64(i) * 3
	}
	met, err := sys.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	if met.Phases != sys.Scheme.Copies {
		t.Fatalf("phases = %d, want q+1 = %d", met.Phases, sys.Scheme.Copies)
	}
	if len(met.PhaseIterations) != met.Phases {
		t.Fatalf("PhaseIterations length %d", len(met.PhaseIterations))
	}
	sum := 0
	for _, it := range met.PhaseIterations {
		sum += it
		if it <= 0 {
			t.Fatalf("phase with %d iterations", it)
		}
	}
	if sum != met.TotalRounds {
		t.Fatalf("TotalRounds %d != Σ %d", met.TotalRounds, sum)
	}
	if met.MaxIterations > met.TotalRounds || met.MaxIterations == 0 {
		t.Fatalf("Φ = %d out of range", met.MaxIterations)
	}
	// Each request accesses exactly a majority of copies.
	if met.CopyAccesses != N*sys.Scheme.Majority {
		t.Fatalf("copy accesses = %d, want %d", met.CopyAccesses, N*sys.Scheme.Majority)
	}
	// Live trace must be non-increasing and end at zero in every phase.
	for p, trace := range met.LiveTrace {
		for i := 1; i < len(trace); i++ {
			if trace[i] > trace[i-1] {
				t.Fatalf("phase %d: live count increased at iteration %d", p, i)
			}
		}
		if len(trace) > 0 && trace[len(trace)-1] != 0 {
			t.Fatalf("phase %d: live count ends at %d", p, trace[len(trace)-1])
		}
	}
	got, _, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("full-batch readback mismatch at %d", i)
		}
	}
}

func TestValidation(t *testing.T) {
	sys := newSystem(t, 1, 3, Config{})
	if _, err := sys.Access([]Request{{Var: 2}, {Var: 2}}); err == nil {
		t.Error("duplicate variable accepted")
	}
	if _, err := sys.Access([]Request{{Var: sys.Index.M()}}); err == nil {
		t.Error("out-of-range variable accepted")
	}
	big := make([]Request, sys.Scheme.NumModules+1)
	for i := range big {
		big[i] = Request{Var: uint64(i)}
	}
	if _, err := sys.Access(big); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := sys.WriteBatch([]uint64{1}, []uint64{1, 2}); err == nil {
		t.Error("mismatched WriteBatch accepted")
	}
}

func TestEmptyBatch(t *testing.T) {
	sys := newSystem(t, 1, 3, Config{})
	res, err := sys.Access(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatal("non-empty result for empty batch")
	}
}

// TestOverwriteSequence: repeated writes to the same variable across batches
// always surface the latest value, exercising timestamp ordering.
func TestOverwriteSequence(t *testing.T) {
	sys := newSystem(t, 1, 5, Config{})
	v := uint64(123)
	for round := 1; round <= 20; round++ {
		if _, err := sys.WriteBatch([]uint64{v}, []uint64{uint64(round * 11)}); err != nil {
			t.Fatal(err)
		}
		got, _, err := sys.ReadBatch([]uint64{v})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != uint64(round*11) {
			t.Fatalf("round %d: read %d", round, got[0])
		}
	}
}

// countingTransport builds failing machines over one fault set and counts
// the machines it builds.
type countingTransport struct {
	fs    *mpc.FaultSet
	built int
}

func (tr *countingTransport) NewMachine(cfg mpc.Config) (Machine, error) {
	tr.built++
	return mpc.NewFailingShared(cfg, tr.fs)
}

// TestOneMachinePerSystem: a System builds its machine once, when it is
// built, and keeps it whatever the batch sizes, repair steps and Close calls
// that follow.
func TestOneMachinePerSystem(t *testing.T) {
	tr := &countingTransport{fs: mpc.NewFaultSet()}
	sys := newSystem(t, 1, 5, Config{Transport: tr})
	if tr.built != 1 {
		t.Fatalf("NewGenericSystem built %d machines, want 1", tr.built)
	}
	n := int(sys.Mapper.NumModules())
	batch := func(size int) {
		t.Helper()
		vars := make([]uint64, size)
		for i := range vars {
			vars[i] = uint64(i) * 5
		}
		if _, _, err := sys.ReadBatch(vars); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{1, 5, 100, n / 3, n} {
		batch(size)
	}
	tr.fs.FailRange(0, 4)
	tr.fs.RecoverPendingRange(0, 4)
	for i := 0; sys.RepairBacklog() > 0; i++ {
		if !sys.RepairStep() || i > 1_000_000 {
			t.Fatalf("repair stalled with backlog %d after %d steps", sys.RepairBacklog(), i)
		}
	}
	sys.Close()
	batch(7)
	if tr.built != 1 {
		t.Fatalf("the System built %d machines over its lifetime, want 1", tr.built)
	}
}
