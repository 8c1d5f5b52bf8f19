package protocol

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/cellstore"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
)

// rwPoison is the cell planted on every copy held by a repairing module
// before a ReadWrite batch: its timestamp outranks every write, so a read
// served by such a copy returns rwPoison.Val.
var rwPoison = cellstore.Cell{Val: 0xbad, TS: 1 << 40}

// TestReadWriteRequest serves a batch of ReadWrite requests on the pp93
// mappers at q=2 n=5/7 and q=4 n=3 and on Mehlhorn–Vishkin (read quorum 1,
// write quorum Copies), healthy, with failed modules, with repairing modules,
// and with modules failing after the batch's first round. A third of the
// variables lose a copy's module and a sixth lose a majority of them. Each
// request must:
//   - return the value its variable held before the batch, when served whole;
//   - leave its new value at the batch's timestamp on a write quorum, when
//     served whole or as a Write (Metrics.ReadRefused);
//   - never read a copy on a repairing module;
//   - commit its write exactly when a plain Write on a twin system does (the
//     static conditions), and whenever a write quorum of its copies survives
//     the batch (all four);
//   - fail, when it fails, with typed errors only.
//
// Then a plain Read, and after repair a healthy one, must see every committed
// write.
func TestReadWriteRequest(t *testing.T) {
	type mcase struct {
		name  string
		build func(t *testing.T) Mapper
	}
	pp := func(m, n int) func(t *testing.T) Mapper {
		return func(t *testing.T) Mapper {
			s, err := core.New(m, n)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := s.NewIndexer()
			if err != nil {
				t.Fatal(err)
			}
			return NewCoreMapper(s, idx)
		}
	}
	mappers := []mcase{
		{"pp93-q2n5", pp(1, 5)},
		{"pp93-q2n7", pp(1, 7)},
		{"pp93-q4n3", pp(2, 3)},
		{"mv-c2", func(t *testing.T) Mapper {
			m, err := baseline.NewMV(64, 4096, 2)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	for _, mc := range mappers {
		m := mc.build(t)
		for _, cond := range []string{"healthy", "failed", "repairing", "midbatch"} {
			t.Run(mc.name+"/"+cond, func(t *testing.T) { readWriteScript(t, m, cond) })
		}
	}
}

// rwTwin is one of the two systems a readWriteScript runs: the ReadWrite
// system and the plain-Write twin, each over its own fault set.
type rwTwin struct {
	sys *System
	fs  *mpc.FaultSet
	// victims fail after the first round of the armed batch when set
	// (the midbatch condition).
	victims []uint64
	armed   bool
}

func newRWTwin(t *testing.T, m Mapper) *rwTwin {
	tw := &rwTwin{fs: mpc.NewFaultSet()}
	sys, err := NewGenericSystem(m, Config{
		NewMachine: func(cfg mpc.Config) (Machine, error) {
			f, err := mpc.NewFailingShared(cfg, tw.fs)
			if err != nil {
				return nil, err
			}
			return &hookedMachine{Failing: f, hook: func([]int64, []bool) {
				if tw.armed {
					tw.armed = false
					for _, mod := range tw.victims {
						tw.fs.Fail(mod)
					}
				}
			}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.repairBudget = -1 // the fault state holds still until the script drains repair
	tw.sys = sys
	return tw
}

func readWriteScript(t *testing.T, m Mapper, cond string) {
	rng := rand.New(rand.NewSource(int64(len(cond)) + int64(m.NumModules())))
	const n = 48
	vars := make([]uint64, 0, n)
	for len(vars) < n {
		if v := rng.Uint64() % m.NumVars(); !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	c := m.Copies()
	writeQ := int32(m.WriteQuorum())
	// Victim modules: copy 0 of every third variable, and a majority of the
	// copies of every sixth.
	var victims []uint64
	for i, v := range vars {
		for j := 0; j < c; j++ {
			if i%3 == 0 && j == 0 || i%6 == 0 && j <= c/2 {
				mod, _ := m.CopyAddr(v, j)
				victims = append(victims, mod)
			}
		}
	}

	rw, plain := newRWTwin(t, m), newRWTwin(t, m)
	batch := func(op Op, vals []uint64) []Request {
		reqs := make([]Request, n)
		for i, v := range vars {
			reqs[i] = Request{Var: v, Op: op, Value: vals[i]}
		}
		return reqs
	}
	before, after := make([]uint64, n), make([]uint64, n)
	for i := range vars {
		before[i], after[i] = uint64(1000+i), uint64(2000+i)
	}
	for _, tw := range []*rwTwin{rw, plain} {
		if _, err := tw.sys.Access(batch(Write, before)); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
		switch cond {
		case "failed":
			for _, mod := range victims {
				tw.fs.Fail(mod)
			}
		case "repairing":
			for _, mod := range victims {
				tw.fs.Fail(mod)
				tw.fs.RecoverPending(mod)
			}
		case "midbatch":
			tw.victims, tw.armed = victims, true
		}
	}

	// Plant the poison on every copy a repairing module holds, remembering
	// the cells it covers.
	planted := map[uint64]cellstore.Cell{}
	for _, v := range vars {
		for j := 0; j < c; j++ {
			if mod, addr := m.CopyAddr(v, j); rw.fs.Snapshot().Repairing(mod) {
				planted[addr] = rw.sys.cells().Get(addr)
				rw.sys.cells().Put(addr, rwPoison)
			}
		}
	}

	res, err := rw.sys.Access(batch(ReadWrite, after))
	if res == nil {
		t.Fatalf("ReadWrite batch refused: %v", err)
	}
	ts := rw.sys.ts
	pres, perr := plain.sys.Access(batch(Write, after))
	if pres == nil {
		t.Fatalf("plain Write batch refused: %v", perr)
	}
	checkTypedError(t, "ReadWrite", &res.Metrics, err)
	checkTypedError(t, "Write", &pres.Metrics, perr)
	for addr, old := range planted {
		if rw.sys.cells().Get(addr) == rwPoison {
			rw.sys.cells().Put(addr, old)
		}
	}

	met := &res.Metrics
	unfinished, refused := met.Unfinished, met.ReadRefused
	for _, r := range refused {
		if !slices.Contains(unfinished, r) || res.Values[r] != 0 {
			t.Fatalf("read-refused request %d: in Unfinished %v, value %d", r, slices.Contains(unfinished, r), res.Values[r])
		}
	}
	committed := make([]bool, n) // the request's write took effect
	for i, v := range vars {
		served := !slices.Contains(unfinished, i)
		wrote := served || slices.Contains(refused, i)
		committed[i] = wrote
		if served && res.Values[i] != before[i] {
			t.Errorf("request %d (variable %d) read %#x, want the pre-batch %d", i, v, res.Values[i], before[i])
		}
		if !served && res.Values[i] != 0 {
			t.Errorf("unserved request %d returned %d", i, res.Values[i])
		}
		// The copies holding the new value at the batch's timestamp.
		fresh, live, eligible := int32(0), int32(0), int32(0)
		for j := 0; j < c; j++ {
			mod, addr := m.CopyAddr(v, j)
			if rw.sys.cells().Get(addr) == (cellstore.Cell{Val: after[i], TS: ts}) {
				fresh++
			}
			if st := rw.fs.Snapshot(); !st.Failed(mod) {
				live++
				if !st.Repairing(mod) {
					eligible++
				}
			}
		}
		if wrote && fresh < writeQ {
			t.Errorf("request %d (variable %d) committed its write on %d copies, quorum %d", i, v, fresh, writeQ)
		}
		if live >= writeQ && !wrote {
			t.Errorf("request %d (variable %d) kept %d live copies, quorum %d, but its write did not commit", i, v, live, writeQ)
		}
		plainWrote := !slices.Contains(pres.Metrics.Unfinished, i)
		if cond != "midbatch" {
			if wrote != plainWrote {
				t.Errorf("request %d (variable %d): ReadWrite wrote %v, plain Write %v", i, v, wrote, plainWrote)
			}
			if full := eligible >= rw.sys.quorum(ReadWrite); served != full {
				t.Errorf("request %d (variable %d): served whole %v with %d read-eligible copies of quorum %d", i, v, served, eligible, rw.sys.quorum(ReadWrite))
			}
		}
	}
	switch cond {
	case "healthy":
		if len(unfinished) != 0 {
			t.Fatalf("healthy batch left %v unfinished", unfinished)
		}
	case "failed":
		if len(met.Stranded) == 0 {
			t.Fatal("no request stranded: the script is not exercising failure")
		}
	case "repairing":
		if len(refused) == 0 {
			t.Fatal("no read refused: the script is not exercising repair")
		}
	}

	// A plain Read in the same fault state sees every committed write it can
	// serve; after repair drains and the failed modules recover through it,
	// every committed write.
	readBack := func(when string, mustServe bool) {
		t.Helper()
		got, err := rw.sys.Access(batch(Read, make([]uint64, n)))
		if got == nil {
			t.Fatalf("%s read-back refused: %v", when, err)
		}
		for i := range vars {
			ok := !slices.Contains(got.Metrics.Unfinished, i)
			if mustServe && !ok {
				t.Errorf("%s: read of variable %d unfinished", when, vars[i])
			}
			if ok && committed[i] && got.Values[i] != after[i] {
				t.Errorf("%s: variable %d read %#x, want the committed %d", when, vars[i], got.Values[i], after[i])
			}
		}
	}
	readBack("same faults", cond == "healthy")
	for _, mod := range victims {
		if rw.fs.Snapshot().Failed(mod) {
			rw.fs.RecoverPending(mod)
		}
	}
	rw.sys.repairBudget = DefaultRepairBudget
	for i := 0; rw.sys.RepairBacklog() > 0; i++ {
		if !rw.sys.RepairStep() || i > 1_000_000 {
			t.Fatalf("repair stalled with backlog %d", rw.sys.RepairBacklog())
		}
	}
	readBack("after repair", true)
}

// checkTypedError: a batch's error is nil iff nothing is unfinished, a
// *QuorumError naming its first stranded request's variable when some
// request is stranded, and ErrIncomplete otherwise.
func checkTypedError(t *testing.T, what string, met *Metrics, err error) {
	t.Helper()
	switch {
	case len(met.Unfinished) == 0:
		if err != nil {
			t.Fatalf("%s: nothing unfinished but err = %v", what, err)
		}
	case len(met.Stranded) > 0:
		var qe *QuorumError
		if !errors.As(err, &qe) || !errors.Is(err, ErrQuorumUnreachable) {
			t.Fatalf("%s: %d stranded, err = %v, want a *QuorumError", what, len(met.Stranded), err)
		}
	default:
		if !errors.Is(err, ErrIncomplete) || errors.Is(err, ErrQuorumUnreachable) {
			t.Fatalf("%s: %d unfinished, err = %v, want ErrIncomplete", what, len(met.Unfinished), err)
		}
	}
	for _, r := range met.Stranded {
		if !slices.Contains(met.Unfinished, r) {
			t.Fatalf("%s: stranded request %d not unfinished", what, r)
		}
	}
}
