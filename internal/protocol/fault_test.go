package protocol

import (
	"errors"
	"slices"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/network"
)

// failingSystem builds a PP system whose machine drops requests to the given
// modules.
func failingSystem(t testing.TB, m, n int, failed []uint64) *System {
	t.Helper()
	s, err := core.New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(s, idx, Config{
		NewMachine: func(cfg mpc.Config) (Machine, error) {
			return mpc.NewFailing(cfg, failed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSingleModuleFailureTolerated: with q = 2 every variable has 3 copies
// in 3 distinct modules and needs a quorum of 2, so one failed module leaves
// every variable a full quorum — all batches must still complete and return
// correct values.
func TestSingleModuleFailureTolerated(t *testing.T) {
	sys := failingSystem(t, 1, 5, []uint64{0})
	n := int(sys.Scheme.NumModules)
	vars := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range vars {
		vars[i] = uint64(i)
		vals[i] = uint64(i + 7)
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatalf("write under one failed module: %v", err)
	}
	got, _, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatalf("read under one failed module: %v", err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("readback mismatch at %d", i)
		}
	}
}

// TestTwoModuleFailuresBlockAtMostOneVariable: a direct consequence of
// Theorem 2 — two distinct modules share at most one variable, so failing
// any two modules leaves at most one variable without a quorum (q = 2).
func TestTwoModuleFailuresBlockAtMostOneVariable(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	inv := idx.(core.Inverter)
	for _, pair := range [][2]uint64{{0, 1}, {2, 40}, {5, 62}, {17, 18}} {
		sys := failingSystem(t, 1, 3, pair[:])
		// Batch: every variable with at least one copy in a failed module.
		seen := make(map[uint64]bool)
		var vars []uint64
		for _, j := range pair {
			for k := uint32(0); k < s.ModuleSize; k++ {
				i, ok := inv.Index(s.ModuleVarMat(j, k))
				if !ok {
					t.Fatal("uninvertible variable")
				}
				if !seen[i] {
					seen[i] = true
					vars = append(vars, i)
				}
			}
		}
		vals := make([]uint64, len(vars))
		met, err := sys.WriteBatch(vars, vals)
		if err == nil {
			continue // no variable had two copies in the failed pair
		}
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("unexpected error type: %v", err)
		}
		if len(met.Unfinished) > 1 {
			t.Fatalf("failing modules %v blocked %d variables; Theorem 2 allows at most 1",
				pair, len(met.Unfinished))
		}
	}
}

// TestQuorumLossReported: failing all three modules of one variable makes it
// unservable; the protocol must report exactly that variable and still
// complete the others.
func TestQuorumLossReported(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	victim := uint64(10)
	mods := s.VarModules(nil, idx.Mat(victim))
	failed := make([]uint64, len(mods))
	copy(failed, mods)
	sys := failingSystem(t, 1, 3, failed)

	vars := []uint64{victim, 3, 4, 5}
	vals := []uint64{1, 2, 3, 4}
	met, err := sys.WriteBatch(vars, vals)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("expected ErrIncomplete, got %v", err)
	}
	found := false
	for _, u := range met.Unfinished {
		if vars[u] == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim not reported in Unfinished: %v", met.Unfinished)
	}
	// Other variables must have completed (3 modules can block more than
	// the victim in principle, but these three are the victim's own).
	got, _, err := sys.ReadBatch([]uint64{3, 4, 5})
	if err != nil {
		t.Fatalf("reading survivors: %v", err)
	}
	for i, want := range []uint64{2, 3, 4} {
		if got[i] != want {
			t.Fatalf("survivor %d read %d, want %d", i, got[i], want)
		}
	}
}

// TestQuorumErrorNamesTheVariable: with every module of Γ(v) dead for a chosen
// v, the batch's error is ErrQuorumUnreachable and says exactly which
// variable stranded it, where its copies live and what state those modules
// were in — dead, or recovered but not yet rebuilt.
func TestQuorumErrorNamesTheVariable(t *testing.T) {
	s, idx := sweepScheme(t) // q=2 n=5: 3 copies, quorum 2
	m := NewCoreMapper(s, idx)
	const victim = uint64(1234)
	gamma := make([]uint64, m.Copies())
	for c := range gamma {
		gamma[c], _ = m.CopyAddr(victim, c)
	}
	for _, tc := range []struct {
		name              string
		failed, repairing []uint64
	}{
		{"all failed", gamma, nil},
		{"one repairing", gamma[:2], gamma[2:]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := mpc.NewFaultSet(gamma...)
			for _, mod := range tc.repairing {
				fs.RecoverPending(mod)
			}
			// No repair pump: the repairing module must still be repairing
			// when the error is built.
			sys := sharedFaultSystem(t, s, idx, fs, Config{})
			sys.repairBudget = -1
			// Any two variables share at most one module, so the bystanders
			// keep their majority.
			reqs := []Request{{Var: 7}, {Var: 99}, {Var: victim}, {Var: 4000}}
			var res Result
			err := sys.AccessInto(reqs, &res)
			if !errors.Is(err, ErrQuorumUnreachable) || !errors.Is(err, ErrIncomplete) {
				t.Fatalf("err = %v, want ErrQuorumUnreachable (and, through it, ErrIncomplete)", err)
			}
			var qe *QuorumError
			if !errors.As(err, &qe) {
				t.Fatalf("err %T does not carry a *QuorumError", err)
			}
			if qe.Var != victim {
				t.Errorf("error names variable %d, want %d", qe.Var, victim)
			}
			if !slices.Equal(qe.Modules, gamma) || !slices.Equal(qe.Failed, tc.failed) || !slices.Equal(qe.Repairing, tc.repairing) {
				t.Errorf("error names modules %v, failed %v, repairing %v; want %v, %v, %v",
					qe.Modules, qe.Failed, qe.Repairing, gamma, tc.failed, tc.repairing)
			}
			if qe.Unfinished != 1 || qe.Stranded != 1 || qe.Requests != len(reqs) {
				t.Errorf("error counts %d unfinished, %d stranded of %d; want 1, 1 of %d",
					qe.Unfinished, qe.Stranded, qe.Requests, len(reqs))
			}
			if !slices.Equal(res.Metrics.Stranded, []int{2}) {
				t.Errorf("Stranded = %v, want [2]", res.Metrics.Stranded)
			}
		})
	}
}

// TestNetworkMachineIntegration: the protocol over a butterfly-backed
// machine produces identical values and iteration metrics to the plain MPC,
// with a strictly larger interconnect cost that is at least diameter ×
// rounds.
func TestNetworkMachineIntegration(t *testing.T) {
	s, err := core.New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSystem(s, idx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := NewSystem(s, idx, Config{
		NewMachine: func(cfg mpc.Config) (Machine, error) { return network.NewMachine(cfg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 512
	vars := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range vars {
		vars[i] = uint64(i * 3)
		vals[i] = uint64(i)
	}
	m1, err := plain.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := routed.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	if m1.TotalRounds != m2.TotalRounds || m1.MaxIterations != m2.MaxIterations {
		t.Fatalf("iteration metrics differ: %+v vs %+v", m1, m2)
	}
	if m1.InterconnectCost != uint64(m1.TotalRounds) {
		t.Fatalf("plain MPC cost %d != rounds %d", m1.InterconnectCost, m1.TotalRounds)
	}
	// The butterfly has 1024 rows (diameter 10); each round costs at least
	// one request sweep of >= diameter steps.
	if m2.InterconnectCost < uint64(10*m2.TotalRounds) {
		t.Fatalf("routed cost %d below diameter×rounds", m2.InterconnectCost)
	}
	got, _, err := routed.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("routed readback mismatch at %d", i)
		}
	}
}
