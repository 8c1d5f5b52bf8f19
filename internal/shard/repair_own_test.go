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
// the copies the sweeps rebuilt and the bids they issued, from the collector
// every shard reports to, plus the number of copies the memory map says they
// had to rebuild.
func ownedRepairCycle(t *testing.T, shards int) (copies, bids, want int64) {
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
	// No batch runs from here on: every bid the collector counts is a
	// repair bid.
	issued := col.IssuedBids.Load()
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
	return col.RepairedCopies.Load(), col.IssuedBids.Load() - issued, want
}

// TestRepairSweepsOwnVariablesOnly: the router gives each of S shards 1/S of
// the variables, and a shard's sweep must skip the rest — their cells are
// the other shards' to write, though all share one store, and sweeping them
// costs their read bids. Two shards must rebuild
// exactly the copies one shard does, with about the same total repair bids
// (sweeping foreign variables too roughly doubles them).
func TestRepairSweepsOwnVariablesOnly(t *testing.T) {
	c1, b1, want := ownedRepairCycle(t, 1)
	c2, b2, _ := ownedRepairCycle(t, 2)
	if want == 0 || c1 != want || c2 != want {
		t.Fatalf("rebuilt %d copies at S=1 and %d at S=2; the memory map says %d", c1, c2, want)
	}
	if b2 > b1*5/4 {
		t.Fatalf("two shards issued %d repair bids against %d for one: they are sweeping each other's variables", b2, b1)
	}
	t.Logf("rebuilt %d copies: %d repair bids at S=1, %d summed over S=2", want, b1, b2)
}

// TestIdleSweepBeforeFirstBatch: a service whose fault set has a range failed
// and re-admitted through the repair queue before any op must rebuild it with
// no traffic at all — the idle dispatcher's pump sees the backlog from the
// start, not from the first batch.
func TestIdleSweepBeforeFirstBatch(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fs := mpc.NewFaultSet()
	svc, err := New(protocol.NewCoreMapper(s, idx), Config{
		Transport: func(int) protocol.Transport { return failingTransport{fs} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	fs.FailRange(0, 8)
	fs.RecoverPendingRange(0, 8)
	deadline := time.Now().Add(10 * time.Second)
	for fs.RepairCount() > 0 {
		// Flush wakes the parked dispatcher, whose idle loop pumps the sweep.
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
		if time.Now().After(deadline) {
			t.Fatalf("repair backlog stuck at %d modules with no op submitted", fs.RepairCount())
		}
	}
}
