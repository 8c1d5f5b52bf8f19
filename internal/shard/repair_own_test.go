package shard

import (
	"errors"
	"testing"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// failingTransport builds machines over one fault set. The ownership test
// gives every shard its own set, so each shard certifies its own sweep and
// the repair books are a function of the script alone.
type failingTransport struct{ fs *mpc.FaultSet }

func (tr failingTransport) NewMachine(cfg mpc.Config) (protocol.Machine, error) {
	return mpc.NewFailingShared(cfg, tr.fs)
}

// ownedRepairCycle scripts one fault cycle on an S-shard service — fail a
// contiguous quarter of the modules, write every variable once, re-admit the
// range through the repair queue, wait for every shard's sweep — and returns
// the repair books of the collector every shard reports to plus the number of
// copies the memory map says the sweeps had to rebuild.
func ownedRepairCycle(t *testing.T, shards int) (copies, rounds, want int64) {
	t.Helper()
	s, err := core.New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fsets := make([]*mpc.FaultSet, shards)
	for i := range fsets {
		fsets[i] = mpc.NewFaultSet()
	}
	col := obs.NewCollector()
	svc, err := New(protocol.NewCoreMapper(s, idx), Config{
		Shards:    shards,
		Protocol:  protocol.Config{Observer: col},
		maxBatch:  32, // small machines, so a sweep is many full waves
		Transport: func(i int) protocol.Transport { return failingTransport{fsets[i]} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	lo, hi := s.NumModules/2, s.NumModules/2+s.NumModules/4
	for _, fs := range fsets {
		fs.FailRange(lo, hi)
	}
	// A variable with one copy in the range is written on its two live
	// copies and leaves the third for the sweep; one with two or three
	// copies there is refused and has nothing to rebuild.
	ops := make([]BatchOp, s.NumVariables)
	var mods []uint64
	for v := range ops {
		ops[v] = BatchOp{Write: true, Var: uint64(v), Val: uint64(v) + 1}
		inRange := 0
		mods = s.VarModules(mods[:0], idx.Mat(uint64(v)))
		for _, m := range mods {
			if m >= lo && m < hi {
				inRange++
			}
		}
		if inRange == 1 {
			want++
		}
	}
	b, err := svc.AccessBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil && !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatal(err)
	}
	for _, fs := range fsets {
		fs.RecoverPendingRange(lo, hi)
	}
	deadline := time.Now().Add(30 * time.Second)
	for backlog := 1; backlog > 0; {
		// Flush wakes parked dispatchers, whose idle loops pump the sweep.
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
		backlog = 0
		for _, fs := range fsets {
			backlog += fs.RepairCount()
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair backlog stuck at %d modules", backlog)
		}
	}
	return col.RepairedCopies.Load(), col.RepairRounds.Load(), want
}

// TestRepairSweepsOwnVariablesOnly: the router gives each of S shards 1/S of
// the variables, and a shard's sweep must skip the rest — they never touch
// its store, yet scanning them costs a read wave each. Two shards must
// rebuild exactly the copies one shard does, in about the same total rounds
// (sweeping foreign variables too roughly doubles them).
func TestRepairSweepsOwnVariablesOnly(t *testing.T) {
	c1, r1, want := ownedRepairCycle(t, 1)
	c2, r2, _ := ownedRepairCycle(t, 2)
	if want == 0 || c1 != want || c2 != want {
		t.Fatalf("rebuilt %d copies at S=1 and %d at S=2; the memory map says %d", c1, c2, want)
	}
	if r2 > r1*5/4 {
		t.Fatalf("two shards drove %d repair rounds against %d for one: they are sweeping each other's variables", r2, r1)
	}
	t.Logf("rebuilt %d copies: %d repair rounds at S=1, %d summed over S=2", want, r1, r2)
}
