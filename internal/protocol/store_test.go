package protocol

import (
	"slices"
	"testing"

	"detshmem/internal/cellstore"
	"detshmem/internal/mpc"
)

// wideMapper reports an address space far beyond what a flat cell array could
// hold (2^32 cells, 64 GiB) and spreads the wrapped mapper's addresses over
// it, a page-sized stride apart.
type wideMapper struct{ Mapper }

const wideStride = 1 << 20

func (w wideMapper) AddrSpace() uint64 { return 1 << 32 }

func (w wideMapper) CopyAddr(v uint64, c int) (uint64, uint64) {
	mod, addr := w.Mapper.CopyAddr(v, c)
	return mod, addr * wideStride
}

// TestLargeAddrSpaceHoldsOnlyWrittenPages: a system over more than 2^26 cells
// runs on the same paged store as every other — a write/read round-trip
// behaves exactly as over the dense space, and the store holds only the pages
// the writes touched.
func TestLargeAddrSpaceHoldsOnlyWrittenPages(t *testing.T) {
	base := newSystem(t, 1, 3, Config{})
	if base.Mapper.AddrSpace()*wideStride > 1<<32 {
		t.Fatal("the wrapped scheme does not fit the wide space")
	}
	wide, err := NewGenericSystem(wideMapper{base.Mapper}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vars := []uint64{0, 5, 10, 40, 83}
	vals := []uint64{9, 8, 7, 6, 5}
	m1, err := base.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := wide.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	if m1.TotalRounds != m2.TotalRounds || m1.CopyAccesses != m2.CopyAccesses {
		t.Fatalf("metrics differ: %+v vs %+v", m1, m2)
	}
	// Every written copy sits alone on its page of the wide space.
	if got, want := wide.store.Pages(), m2.CopyAccesses; got != want {
		t.Fatalf("the wide store holds %d pages after %d copy writes", got, want)
	}
	g1, _, err := base.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := wide.ReadBatch(vars)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g1, vals) || !slices.Equal(g2, vals) {
		t.Fatalf("read back %v / %v, want %v", g1, g2, vals)
	}
	if got := wide.store.Pages(); got != m2.CopyAccesses {
		t.Fatalf("reading allocated pages: %d, want %d", got, m2.CopyAccesses)
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
// and granted reads carry the cell back. Payloads and replies are indexed by
// the bid's position in the round's list.
type remoteMachine struct {
	Machine
	staged  []remoteBid
	granted []cellstore.Cell
	cells   map[uint64]cellstore.Cell
}

type remoteBid struct {
	addr uint64
	op   Op
	c    cellstore.Cell
}

// newRemoteMachine is a Config.NewMachine building a remoteMachine over the
// plain MPC.
func newRemoteMachine(cfg mpc.Config) (Machine, error) {
	m, err := mpc.New(cfg)
	return remoteOver(m, cfg.Procs), err
}

func remoteOver(m Machine, procs int) *remoteMachine {
	return &remoteMachine{Machine: m, staged: make([]remoteBid, procs), granted: make([]cellstore.Cell, procs), cells: map[uint64]cellstore.Cell{}}
}

func (r *remoteMachine) StageBid(pos int32, addr uint64, op Op, value, ts uint64) {
	r.staged[pos] = remoteBid{addr: addr, op: op, c: cellstore.Cell{Val: value, TS: ts}}
}

func (r *remoteMachine) GrantData(pos int32) (uint64, uint64) {
	return r.granted[pos].Val, r.granted[pos].TS
}

func (r *remoteMachine) Round(bids []int64, grant []bool) int {
	n := r.Machine.Round(bids, grant)
	for i, ok := range grant {
		if !ok {
			continue
		}
		switch b := r.staged[i]; b.op {
		case Write:
			r.cells[b.addr] = b.c
		case RepairWrite:
			if b.c.TS > r.cells[b.addr].TS {
				r.cells[b.addr] = b.c
			}
		default:
			r.granted[i] = r.cells[b.addr]
		}
	}
	return n
}

// TestRemoteSystemHoldsNoLocalStore: a system whose machine is a RemoteStore
// never allocates the local cell array, and ignores a Config.Cells it is
// handed; a local system allocates it with its machine, at construction, and
// CopyState allocates it on demand.
func TestRemoteSystemHoldsNoLocalStore(t *testing.T) {
	local := newSystem(t, 1, 5, Config{})
	shared := cellstore.New(local.Mapper.AddrSpace())
	remote := newSystem(t, 1, 5, Config{NewMachine: newRemoteMachine, Cells: shared})
	if remote.store != nil {
		t.Fatal("a system over a RemoteStore allocated its cell store at construction")
	}
	if local.store == nil {
		t.Fatal("a local system was built without its cell store")
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
	if ts := remote.CopyState(5); len(ts) != remote.Mapper.Copies() || remote.store == nil {
		t.Fatalf("CopyState on a fresh store: %v (store allocated: %v)", ts, remote.store != nil)
	}
	if remote.store == shared || shared.Pages() != 0 {
		t.Fatal("a system over a RemoteStore kept its cells in Config.Cells")
	}
}

// TestSharedCellStore: Systems handed one Config.Cells keep their cells in
// it, so two Systems serving disjoint variables hold one copy of the module
// memory between them and each reads back its own writes.
func TestSharedCellStore(t *testing.T) {
	base := newSystem(t, 1, 5, Config{})
	cells := cellstore.New(base.Mapper.AddrSpace())
	var systems [2]*System
	for i := range systems {
		sys, err := NewGenericSystem(base.Mapper, Config{Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		if sys.Cells() != cells {
			t.Fatal("a System handed Config.Cells allocated its own store")
		}
		systems[i] = sys
	}
	// System i serves the variables ≡ i mod 2.
	vars := [2][]uint64{{0, 10, 100, 1000}, {5, 11, 101, 1001}}
	vals := [2][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	for i, sys := range systems {
		if _, err := sys.WriteBatch(vars[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, sys := range systems {
		got, _, err := sys.ReadBatch(vars[i])
		if err != nil || !slices.Equal(got, vals[i]) {
			t.Fatalf("System %d read back %v, %v; want %v", i, got, err, vals[i])
		}
		// The other System's CopyState reads the same cells.
		if !slices.ContainsFunc(systems[1-i].CopyState(vars[i][0]), func(ts uint64) bool { return ts != 0 }) {
			t.Fatalf("System %d's writes are not in the shared store", i)
		}
	}
}

// stagedLog is a remoteMachine over a failing MPC — the fault set gives it
// the fault and repair views — that logs every bid the protocol stages.
type stagedLog struct {
	*remoteMachine
	*mpc.FaultSet
	log []remoteBid
}

func (s *stagedLog) StageBid(proc int32, addr uint64, op Op, value, ts uint64) {
	s.log = append(s.log, remoteBid{addr: addr, op: op, c: cellstore.Cell{Val: value, TS: ts}})
	s.remoteMachine.StageBid(proc, addr, op, value, ts)
}

// TestRemoteRepairStagesPlainOps: over a RemoteStore the repair waves reach
// the machine only as ops a memory module knows — a sweep read stages a
// plain Read (no payload), a repair write stages the rebuilt (value,
// timestamp) — and the rebuild restores the wiped copies on the far side.
func TestRemoteRepairStagesPlainOps(t *testing.T) {
	fs := mpc.NewFaultSet()
	var m *stagedLog
	sys := newSystem(t, 1, 3, Config{NewMachine: func(cfg mpc.Config) (Machine, error) {
		f, err := mpc.NewFailingShared(cfg, fs)
		m = &stagedLog{remoteMachine: remoteOver(f, cfg.Procs), FaultSet: fs}
		return m, err
	}})
	n := int(sys.Mapper.NumModules())
	vars, vals := make([]uint64, n), make([]uint64, n)
	for i := range vars {
		vars[i], vals[i] = uint64(i), uint64(500+i)
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatal(err)
	}
	const ts = 1 // the system's first batch
	// Module 5 restarts empty and comes back under repair.
	const victim = 5
	rebuilt := map[uint64]cellstore.Cell{} // wiped addr -> the cell repair must restore
	for i, v := range vars {
		for c := 0; c < sys.Mapper.Copies(); c++ {
			if mod, addr := sys.Mapper.CopyAddr(v, c); mod == victim {
				rebuilt[addr] = cellstore.Cell{Val: vals[i], TS: ts}
				delete(m.cells, addr)
			}
		}
	}
	if len(rebuilt) == 0 {
		t.Fatal("no written copy on the victim module")
	}
	fs.Fail(victim)
	fs.RecoverPending(victim)
	m.log = m.log[:0]
	drainRepair(t, sys)

	reads, repaired := 0, map[uint64]bool{} // a bid is staged again every round it waits
	for _, b := range m.log {
		switch b.op {
		case Read:
			reads++
			if b.c != (cellstore.Cell{}) {
				t.Fatalf("sweep read staged a payload %+v", b.c)
			}
		case RepairWrite:
			repaired[b.addr] = true
			if want, ok := rebuilt[b.addr]; !ok || b.c != want {
				t.Fatalf("repair write at %d staged %+v, want the wiped copy's %+v", b.addr, b.c, want)
			}
		default:
			t.Fatalf("repair staged op %d", b.op)
		}
	}
	if reads == 0 || len(repaired) != len(rebuilt) {
		t.Fatalf("%d sweep reads staged, repair writes at %d of %d wiped copies", reads, len(repaired), len(rebuilt))
	}
	for addr, want := range rebuilt {
		if got := m.cells[addr]; got != want {
			t.Fatalf("copy at %d rebuilt as %+v, want %+v", addr, got, want)
		}
	}
	got, _, err := sys.ReadBatch(vars)
	if err != nil || !slices.Equal(got, vals) {
		t.Fatalf("read after repair: %v, %v; want %v", got, err, vals)
	}
}
