package netmpc

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"detshmem/internal/cellstore"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
)

// roundServer builds a server over modules [lo, hi) of a space of hi
// modules × 64 cells, with the per-connection scratch serveRound takes.
func roundServer(lo, hi uint64) (*Server, *arbiter) {
	sv := NewServer(ServerConfig{Modules: hi, AddrSpace: hi * 64, RangeLo: lo, RangeHi: hi})
	return sv, sv.newArbiter()
}

// TestServeRoundMatchesReference: on random frames — ascending positions
// with random gaps, as a client's frame to one server has — the dense
// arbitration grants exactly what a lowest-Proc-per-module map would, one
// grant per bid-for module, in the order the modules were first bid for.
func TestServeRoundMatchesReference(t *testing.T) {
	const lo, hi = 100, 164
	sv, arb := roundServer(lo, hi)
	st := sv.storeFor(1)
	rng := rand.New(rand.NewSource(7))
	var reply RoundReply
	for round := 0; round < 500; round++ {
		procs := rng.Perm(400)[:rng.Intn(200)]
		slices.Sort(procs)
		frame := RoundFrame{Bids: make([]Bid, len(procs))}
		lowest := map[uint64]uint32{} // module -> lowest bidding processor
		var order []uint64            // modules in first-bid order
		for i, p := range procs {
			b := Bid{
				Proc:   uint32(p),
				Module: lo + uint64(rng.Intn(hi-lo)),
				Addr:   uint64(rng.Intn(hi * 64)),
				Op:     uint8(rng.Intn(3)),
				Value:  rng.Uint64(),
				TS:     uint64(round + 1),
			}
			frame.Bids[i] = b
			if w, ok := lowest[b.Module]; !ok {
				lowest[b.Module] = b.Proc
				order = append(order, b.Module)
			} else if b.Proc < w {
				lowest[b.Module] = b.Proc
			}
		}
		reply.Grants = reply.Grants[:0]
		if err := sv.serveRound(st, &frame, &reply, arb); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(reply.Grants) != len(order) {
			t.Fatalf("round %d: %d grants for %d bid-for modules", round, len(reply.Grants), len(order))
		}
		for k, m := range order {
			if want := lowest[m]; reply.Grants[k].Proc != want {
				t.Fatalf("round %d: grant %d (module %d) went to proc %d, want %d", round, k, m, reply.Grants[k].Proc, want)
			}
		}
	}
}

// TestServeRoundRejectedFrameLeavesNoMarks: a frame rejected halfway (its
// early bids already arbitrated) must not leak winners into the next round.
func TestServeRoundRejectedFrameLeavesNoMarks(t *testing.T) {
	sv, arb := roundServer(0, 8)
	st := sv.storeFor(1)
	var reply RoundReply
	bad := RoundFrame{Bids: []Bid{
		{Proc: 1, Module: 3, Addr: 1, Op: 1, Value: 9, TS: 1},
		{Proc: 2, Module: 9}, // outside [0, 8)
	}}
	if err := sv.serveRound(st, &bad, &reply, arb); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("out-of-range bid: err = %v, want ErrCorruptFrame", err)
	}
	if c := st.cells.Get(1); c != (cellstore.Cell{}) {
		t.Fatalf("rejected frame wrote %+v", c)
	}
	good := RoundFrame{Bids: []Bid{{Proc: 7, Module: 4, Addr: 2}}}
	reply.Grants = reply.Grants[:0]
	if err := sv.serveRound(st, &good, &reply, arb); err != nil {
		t.Fatal(err)
	}
	if len(reply.Grants) != 1 || reply.Grants[0].Proc != 7 {
		t.Fatalf("grants after a rejected frame: %+v, want one grant to proc 7", reply.Grants)
	}
	outside := RoundFrame{Bids: []Bid{{Module: 1, Addr: 8 * 64}}} // address outside the space
	if err := sv.serveRound(st, &outside, &reply, arb); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("frame %+v: err = %v, want ErrCorruptFrame", outside.Bids[0], err)
	}
}

// TestServeRoundRejectsUnsortedPositions: a frame whose bid positions do
// not strictly ascend — one out of order, or one repeated — is refused as
// corrupt before any cell is touched, and the next well-formed frame is
// arbitrated on a clean slate.
func TestServeRoundRejectsUnsortedPositions(t *testing.T) {
	for _, second := range []uint32{0, 1} {
		sv, arb := roundServer(0, 8)
		st := sv.storeFor(1)
		var reply RoundReply
		bad := RoundFrame{Bids: []Bid{
			{Proc: 1, Module: 3, Addr: 1, Op: opWrite, Value: 9, TS: 1},
			{Proc: second, Module: 3, Addr: 2, Op: opWrite, Value: 42, TS: 1},
		}}
		if err := sv.serveRound(st, &bad, &reply, arb); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("positions 1, %d: err = %v, want ErrCorruptFrame", second, err)
		}
		if st.cells.Pages() != 0 || len(reply.Grants) != 0 {
			t.Fatalf("positions 1, %d: the refused frame touched the store (%d pages) or granted %+v", second, st.cells.Pages(), reply.Grants)
		}
		good := RoundFrame{Bids: []Bid{{Proc: 4, Module: 3, Addr: 2}, {Proc: 6, Module: 3, Addr: 1}}}
		if err := sv.serveRound(st, &good, &reply, arb); err != nil {
			t.Fatal(err)
		}
		if len(reply.Grants) != 1 || reply.Grants[0].Proc != 4 {
			t.Fatalf("grants %+v, want module 3 to its first claim, position 4", reply.Grants)
		}
	}
}

// TestServeRoundRejectsUnknownOps: a bid whose op is not read, write or
// repair-write is refused as a corrupt frame in the validation pass, before
// any cell is touched — not executed as a write.
func TestServeRoundRejectsUnknownOps(t *testing.T) {
	for _, op := range []uint8{3, 255} {
		sv, arb := roundServer(0, 8)
		st := sv.storeFor(1)
		var reply RoundReply
		bad := RoundFrame{Bids: []Bid{
			{Proc: 1, Module: 3, Addr: 1, Op: opWrite, Value: 9, TS: 1},
			{Proc: 2, Module: 4, Addr: 2, Op: op, Value: 42, TS: 9},
		}}
		if err := sv.serveRound(st, &bad, &reply, arb); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("op %d: err = %v, want ErrCorruptFrame", op, err)
		}
		if st.cells.Pages() != 0 || len(reply.Grants) != 0 {
			t.Fatalf("op %d: the refused frame touched the store (%d pages) or granted %+v", op, st.cells.Pages(), reply.Grants)
		}
	}
}

// TestRepairWriteOnFreshPage: the put-if-newer rule holds when the target
// page does not exist yet — the first repair-write installs, an older one
// does not roll it back, and a stale one at timestamp zero allocates nothing.
func TestRepairWriteOnFreshPage(t *testing.T) {
	sv, arb := roundServer(0, 4*cellstore.PageCells/64)
	st := sv.storeFor(1)
	var reply RoundReply
	serve := func(b Bid) {
		t.Helper()
		reply.Grants = reply.Grants[:0]
		if err := sv.serveRound(st, &RoundFrame{Bids: []Bid{b}}, &reply, arb); err != nil {
			t.Fatal(err)
		}
	}
	addr := uint64(2*cellstore.PageCells + 5)
	serve(Bid{Addr: addr, Op: 2, Value: 7, TS: 0})
	if st.cells.Pages() != 0 {
		t.Fatal("a repair-write at timestamp 0 allocated its page")
	}
	serve(Bid{Addr: addr, Op: 2, Value: 41, TS: 9})
	serve(Bid{Addr: addr, Op: 2, Value: 13, TS: 4})
	serve(Bid{Addr: addr, Op: 0})
	if g := reply.Grants[0]; g.Value != 41 || g.TS != 9 {
		t.Fatalf("read back (%d, %d), want (41, 9)", g.Value, g.TS)
	}
}

// TestStoreIDsAreIsolated: two StoreIDs on one server are disjoint memories.
func TestStoreIDsAreIsolated(t *testing.T) {
	sv, arb := roundServer(0, 8)
	a, b := sv.storeFor(1), sv.storeFor(2)
	if a == b || sv.storeFor(1) != a {
		t.Fatal("storeFor does not give each StoreID one store")
	}
	var reply RoundReply
	w := RoundFrame{Bids: []Bid{{Module: 1, Addr: 70, Op: 1, Value: 5, TS: 3}}}
	if err := sv.serveRound(a, &w, &reply, arb); err != nil {
		t.Fatal(err)
	}
	if c := a.cells.Get(70); c != (cellstore.Cell{Val: 5, TS: 3}) {
		t.Fatalf("store 1 holds %+v", c)
	}
	if c := b.cells.Get(70); c != (cellstore.Cell{}) {
		t.Fatalf("store 2 sees store 1's write: %+v", c)
	}
}

// TestRoundAllocFree: a steady-state Client.Round against a loopback server
// allocates nothing — not in the client (frames and the one reply per server
// are reused, the read deadline is set in place), not in the server's frame
// loop, which runs in this process and so counts too.
func TestRoundAllocFree(t *testing.T) {
	s := testScheme(t)
	_, addrs := startCluster(t, s, 2)
	tr, err := Dial(testDialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const procs = 48
	m, err := tr.NewMachine(mpc.Config{Procs: procs, Modules: int(s.NumModules)})
	if err != nil {
		t.Fatal(err)
	}
	c := m.(*Client)
	bids := make([]int64, procs)
	grant := make([]bool, procs)
	round := func() {
		for p := range bids {
			// Two bidders per module, spread over both servers.
			mod := int64(p/2) * int64(s.NumModules) / (procs / 2)
			bids[p] = mpc.Bid(p, mod)
			c.StageBid(int32(p), uint64(mod)*uint64(s.ModuleSize), 1, uint64(p), c.Cost()+1)
		}
		if served := c.Round(bids, grant); served != procs/2 {
			t.Fatalf("served %d of %d modules", served, procs/2)
		}
	}
	for i := 0; i < 20; i++ { // warm-up: buffers, store pages
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state TCP round allocates %.2f times", avg)
	}
}

// BenchmarkServeRound is the server's share of one round: a 64-bid frame
// (two bidders per module) arbitrated and applied against a warmed store.
func BenchmarkServeRound(b *testing.B) {
	s, err := core.New(1, 7) // the suite's tcp-loopback geometry
	if err != nil {
		b.Fatal(err)
	}
	sv := NewServer(serverConfigFor(s, 0, 2))
	arb := sv.newArbiter()
	st := sv.storeFor(1)
	rng := rand.New(rand.NewSource(1))
	frames := make([]RoundFrame, 256)
	for f := range frames {
		bids := make([]Bid, 64)
		for i := range bids {
			m := sv.cfg.RangeLo + uint64(rng.Intn(int(sv.cfg.RangeHi-sv.cfg.RangeLo)))
			if i%2 == 1 {
				m = bids[i-1].Module
			}
			bids[i] = Bid{Proc: uint32(i), Module: m, Addr: m*uint64(s.ModuleSize) + uint64(rng.Intn(int(s.ModuleSize))), Op: uint8(i / 2 % 2), Value: uint64(i), TS: uint64(f + 1)}
		}
		frames[f].Bids = bids
	}
	var reply RoundReply
	for f := range frames { // warm the store's pages
		if err := sv.serveRound(st, &frames[f], &reply, arb); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reply.Grants = reply.Grants[:0]
		if err := sv.serveRound(st, &frames[i%len(frames)], &reply, arb); err != nil {
			b.Fatal(err)
		}
	}
	if !slices.ContainsFunc(reply.Grants, func(g Grant) bool { return g.Proc < 64 }) {
		b.Fatal("no grants")
	}
}
