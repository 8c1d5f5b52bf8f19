package protocol

import (
	"slices"
	"testing"
	"testing/quick"

	"detshmem/internal/mpc"
)

// TestStoreSelection: newStore picks dense below the threshold, sparse above.
func TestStoreSelection(t *testing.T) {
	if _, ok := newStore(1024).(denseStore); !ok {
		t.Error("small store not dense")
	}
	if _, ok := newStore(denseThreshold + 1).(sparseStore); !ok {
		t.Error("huge store not sparse")
	}
}

// TestStoreEquivalenceQuick: dense and sparse stores behave identically
// under random operation sequences.
func TestStoreEquivalenceQuick(t *testing.T) {
	const space = 512
	prop := func(ops []struct {
		Addr uint64
		Val  uint64
		Put  bool
	}) bool {
		d := denseStore(make([]cell, space))
		s := sparseStore(make(map[uint64]cell))
		for i, op := range ops {
			addr := op.Addr % space
			if op.Put {
				c := cell{val: op.Val, ts: uint64(i)}
				d.put(addr, c)
				s.put(addr, c)
			} else if d.get(addr) != s.get(addr) {
				return false
			}
		}
		for a := uint64(0); a < space; a++ {
			if d.get(a) != s.get(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sparseMapper wraps a Mapper reporting an address space beyond the dense
// threshold, forcing the sparse store while keeping actual addresses small.
type sparseMapper struct{ Mapper }

func (s sparseMapper) AddrSpace() uint64 { return denseThreshold + 1 }

// TestProtocolSparseStoreEquivalence: the same batch sequence produces the
// same values and metrics under dense and sparse storage.
func TestProtocolSparseStoreEquivalence(t *testing.T) {
	mk := func(sparse bool) *System {
		base := newSystem(t, 1, 5, Config{})
		m := base.Mapper
		if sparse {
			m = sparseMapper{m}
		}
		sys, err := NewGenericSystem(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := mk(false), mk(true)
	if _, ok := b.cells().(sparseStore); !ok {
		t.Fatal("sparse system did not get a sparse store")
	}
	vars := []uint64{0, 5, 10, 100, 1000}
	vals := []uint64{9, 8, 7, 6, 5}
	m1, err := a.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	if m1.TotalRounds != m2.TotalRounds {
		t.Fatalf("rounds differ: %d vs %d", m1.TotalRounds, m2.TotalRounds)
	}
	g1, _, err := a.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := b.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1 {
		if g1[i] != g2[i] || g1[i] != vals[i] {
			t.Fatalf("value mismatch at %d: %d / %d / %d", i, g1[i], g2[i], vals[i])
		}
	}
}

// TestReadIdempotence: reading the same batch twice returns identical values
// and identical metrics (reads do not mutate protocol-relevant state).
func TestReadIdempotence(t *testing.T) {
	sys := newSystem(t, 1, 5, Config{})
	vars := []uint64{1, 2, 3, 400, 500}
	if _, err := sys.WriteBatch(vars, []uint64{10, 20, 30, 40, 50}); err != nil {
		t.Fatal(err)
	}
	v1raw, m1raw, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	// ReadBatch reuses its buffers across calls on the same system; snapshot
	// the first result before issuing the second read.
	v1 := append([]uint64(nil), v1raw...)
	m1 := *m1raw
	v2, m2, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("read not idempotent at %d", i)
		}
	}
	if m1.TotalRounds != m2.TotalRounds {
		t.Fatalf("metrics differ across identical reads: %d vs %d", m1.TotalRounds, m2.TotalRounds)
	}
}

// remoteMachine keeps the cells on its own side of the Machine interface,
// the way netmpc.Client does: granted bids apply their staged operation here
// and granted reads carry the cell back.
type remoteMachine struct {
	Machine
	staged  []remoteBid
	granted []cell
	cells   map[uint64]cell
}

type remoteBid struct {
	addr uint64
	op   Op
	c    cell
}

func (r *remoteMachine) StageBid(proc int32, addr uint64, op Op, value, ts uint64) {
	r.staged[proc] = remoteBid{addr: addr, op: op, c: cell{val: value, ts: ts}}
}

func (r *remoteMachine) GrantData(proc int32) (uint64, uint64) {
	return r.granted[proc].val, r.granted[proc].ts
}

func (r *remoteMachine) Round(reqs []int64, grant []bool) int {
	n := r.Machine.Round(reqs, grant)
	for p, ok := range grant {
		if !ok {
			continue
		}
		if b := r.staged[p]; b.op == Write {
			r.cells[b.addr] = b.c
		} else {
			r.granted[p] = r.cells[b.addr]
		}
	}
	return n
}

// TestRemoteSystemHoldsNoLocalStore: a system whose machine is a RemoteStore
// never allocates the local cell array; a local system allocates it with its
// first machine, and CopyState allocates it on demand.
func TestRemoteSystemHoldsNoLocalStore(t *testing.T) {
	remote := newSystem(t, 1, 5, Config{NewMachine: func(cfg mpc.Config) (Machine, error) {
		m, err := mpc.New(cfg)
		return &remoteMachine{Machine: m, staged: make([]remoteBid, cfg.Procs), granted: make([]cell, cfg.Procs), cells: map[uint64]cell{}}, err
	}})
	local := newSystem(t, 1, 5, Config{})
	if remote.store != nil || local.store != nil {
		t.Fatal("a system allocated its cell store before any use")
	}
	vars, vals := []uint64{0, 5, 10, 100, 1000}, []uint64{9, 8, 7, 6, 5}
	for _, sys := range []*System{remote, local} {
		if _, err := sys.WriteBatch(vars, vals); err != nil {
			t.Fatal(err)
		}
		got, _, err := sys.ReadBatch(vars)
		if err != nil || !slices.Equal(got, vals) {
			t.Fatalf("read back %v, %v; want %v", got, err, vals)
		}
	}
	if remote.store != nil {
		t.Fatal("a system over a RemoteStore allocated a local cell store")
	}
	if local.store == nil {
		t.Fatal("a local system ran batches without a cell store")
	}
	if ts := remote.CopyState(5); len(ts) != remote.Mapper.Copies() || remote.store == nil {
		t.Fatalf("CopyState on a fresh store: %v (store allocated: %v)", ts, remote.store != nil)
	}
}
