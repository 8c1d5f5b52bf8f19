package netmpc

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// testScheme builds the smallest PP93 scheme (q=2, n=3: 63 modules, 3
// copies, majority 2).
func testScheme(t testing.TB) *core.Scheme {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startCluster launches k in-process servers covering the scheme's modules
// and returns them with their addresses. Servers are torn down at test end.
func startCluster(t testing.TB, s *core.Scheme, k int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sv := newServer(s, i, k)
		go sv.Serve(ln)
		servers[i] = sv
		addrs[i] = ln.Addr().String()
		t.Cleanup(sv.Close)
	}
	return servers, addrs
}

// newServer builds server i of a k-server cluster over s, not yet serving.
func newServer(s *core.Scheme, i, k int) *Server {
	_, cfg := Geometry(s, i, k)
	return NewServer(cfg)
}

// dialConfig is the client Config for the cluster at addrs over s, with a
// one-second round timeout.
func dialConfig(s *core.Scheme, addrs []string) Config {
	cfg, _ := Geometry(s, 0, len(addrs))
	cfg.Servers, cfg.RoundTimeout = addrs, time.Second
	return cfg
}

// dial connects a client to the cluster at addrs over s, closed at test end.
func dial(t testing.TB, s *core.Scheme, addrs []string) *Transport {
	t.Helper()
	tr, err := Dial(dialConfig(s, addrs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func newTCPSystem(t testing.TB, s *core.Scheme, tr *Transport) *protocol.System {
	t.Helper()
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := protocol.NewSystem(s, idx, protocol.Config{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRangePartition(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7} {
		modules := int64(1023)
		covered := int64(0)
		for i := 0; i < k; i++ {
			lo, hi := Range(i, k, modules)
			if lo != covered {
				t.Fatalf("k=%d server %d starts at %d, want %d", k, i, lo, covered)
			}
			covered = hi
		}
		if covered != modules {
			t.Fatalf("k=%d covers %d of %d modules", k, covered, modules)
		}
		for m := int64(0); m < modules; m++ {
			i := ServerFor(m, modules, k)
			lo, hi := Range(i, k, modules)
			if m < lo || m >= hi {
				t.Fatalf("k=%d: ServerFor(%d)=%d owns [%d,%d)", k, m, i, lo, hi)
			}
		}
	}
}

// TestEquivalenceWithInproc drives the same batch stream through an
// in-process system and a TCP system over a 2-server loopback cluster; the
// observable values must be identical.
func TestEquivalenceWithInproc(t *testing.T) {
	s := testScheme(t)
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	local, err := protocol.NewSystem(s, idx, protocol.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	_, addrs := startCluster(t, s, 2)
	tr := dial(t, s, addrs)
	remote := newTCPSystem(t, s, tr)

	rng := rand.New(rand.NewSource(7))
	nv := int(s.NumVariables)
	for batch := 0; batch < 20; batch++ {
		sz := 1 + rng.Intn(16)
		vars := make([]uint64, 0, sz)
		seen := map[uint64]bool{}
		for len(vars) < sz {
			v := uint64(rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		if batch%3 != 2 {
			vals := make([]uint64, len(vars))
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			if _, err := local.WriteBatch(vars, vals); err != nil {
				t.Fatalf("local write: %v", err)
			}
			if _, err := remote.WriteBatch(vars, vals); err != nil {
				t.Fatalf("remote write: %v", err)
			}
			continue
		}
		lv, _, err := local.ReadBatch(vars)
		if err != nil {
			t.Fatalf("local read: %v", err)
		}
		rv, _, err := remote.ReadBatch(vars)
		if err != nil {
			t.Fatalf("remote read: %v", err)
		}
		for i := range vars {
			if lv[i] != rv[i] {
				t.Fatalf("batch %d var %d: local %d, remote %d", batch, vars[i], lv[i], rv[i])
			}
		}
	}
	for _, st := range tr.Stats() {
		if !st.Up || st.Frames == 0 || st.RTTCount == 0 {
			t.Fatalf("server stats not populated: %+v", st)
		}
	}
}

// TestThinClientComputedStrategy is the thin-client demonstration: a TCP
// client under Strategy ResolverComputed carries no compiled table at all —
// every batch resolves through the vectorized Section 4 kernels — while the
// memory cells live on the remote servers. Values must match a plain
// in-process system, so a client footprint of O(indexer) + O(cache lines)
// replaces the O(M) table without observable difference.
func TestThinClientComputedStrategy(t *testing.T) {
	s := testScheme(t)
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	local, err := protocol.NewSystem(s, idx, protocol.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	_, addrs := startCluster(t, s, 2)
	tr := dial(t, s, addrs)
	thin, err := protocol.NewSystem(s, idx, protocol.Config{Transport: tr, Strategy: protocol.ResolverComputed})
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()

	rng := rand.New(rand.NewSource(11))
	nv := int(s.NumVariables)
	for batch := 0; batch < 12; batch++ {
		sz := 1 + rng.Intn(16)
		vars := make([]uint64, 0, sz)
		seen := map[uint64]bool{}
		for len(vars) < sz {
			v := uint64(rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		if batch%3 != 2 {
			vals := make([]uint64, len(vars))
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			if _, err := local.WriteBatch(vars, vals); err != nil {
				t.Fatalf("local write: %v", err)
			}
			if _, err := thin.WriteBatch(vars, vals); err != nil {
				t.Fatalf("thin write: %v", err)
			}
			continue
		}
		lv, _, err := local.ReadBatch(vars)
		if err != nil {
			t.Fatalf("local read: %v", err)
		}
		tv, _, err := thin.ReadBatch(vars)
		if err != nil {
			t.Fatalf("thin read: %v", err)
		}
		for i := range vars {
			if lv[i] != tv[i] {
				t.Fatalf("batch %d var %d: local %d, thin %d", batch, vars[i], lv[i], tv[i])
			}
		}
	}
}

// TestServerDeathDegradesLikeModuleFaults kills one of four servers and
// checks that (a) the whole range joins the fault set, (b) batches keep
// completing for variables that retain a live majority, with correct
// values, and (c) stranded requests surface through the PR 5 error path
// (ErrIncomplete class), never as hangs.
func TestServerDeathDegradesLikeModuleFaults(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 4)
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)

	nv := int(s.NumVariables)
	model := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(11))
	vars := make([]uint64, 0, 8)
	for v := 0; v < nv; v += 7 {
		vars = append(vars, uint64(v))
	}
	vals := make([]uint64, len(vars))
	for i := range vals {
		vals[i] = rng.Uint64()
		model[vars[i]] = vals[i]
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	victim := 1
	servers[victim].Close()
	lo, hi := Range(victim, 4, int64(s.NumModules))

	deadline := time.Now().Add(5 * time.Second)
	for {
		reqs := make([]protocol.Request, len(vars))
		for i, v := range vars {
			reqs[i] = protocol.Request{Var: v, Op: protocol.Read}
		}
		res, err := sys.Access(reqs)
		if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			t.Fatalf("degraded read: %v", err)
		}
		if tr.FaultSet().Count() == int(hi-lo) {
			unfinished := unfinishedSet(&res.Metrics)
			for i, v := range vars {
				if unfinished[i] {
					continue
				}
				if res.Values[i] != model[v] {
					t.Fatalf("var %d: read %d, want %d", v, res.Values[i], model[v])
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault set never reached range size: %d of %d", tr.FaultSet().Count(), hi-lo)
		}
	}
}

// TestReconnectRecoversRange restarts a killed server (same address) and
// checks the reconnect loop re-handshakes, recovers the module range in
// the fault set, and subsequent batches complete. Several kill/restart
// cycles exercise the reconnect path under churn.
func TestReconnectRecoversRange(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 2)
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)

	vars := []uint64{1, 5, 9, 13}
	vals := []uint64{10, 50, 90, 130}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatal(err)
	}

	for cycle := 0; cycle < 3; cycle++ {
		servers[1].Close()
		probeUntilDeath(t, tr, sys, vars)

		// Restart on the same address; the reconnect loop should find it.
		ln, err := net.Listen("tcp", addrs[1])
		if err != nil {
			t.Fatalf("cycle %d rebind: %v", cycle, err)
		}
		servers[1] = newServer(s, 1, 2)
		go servers[1].Serve(ln)
		waitFor(t, 5*time.Second, func() bool { return tr.FaultSet().Count() == 0 })

		if _, err := sys.WriteBatch(vars, vals); err != nil {
			t.Fatalf("cycle %d write after recovery: %v", cycle, err)
		}
	}
	servers[1].Close()
	if got := tr.Stats()[1].Reconnects; got < 3 {
		t.Fatalf("reconnects = %d, want >= 3", got)
	}
}

// unfinishedSet indexes the requests a degraded batch left unfinished.
func unfinishedSet(m *protocol.Metrics) map[int]bool {
	set := make(map[int]bool, len(m.Unfinished))
	for _, r := range m.Unfinished {
		set[r] = true
	}
	return set
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHandshakeMismatchesAreTyped covers the fail-fast paths: wrong scheme
// geometry, wrong module range split, and wrong wire version must each
// surface as their typed error, at Dial time, without hanging.
func TestHandshakeMismatchesAreTyped(t *testing.T) {
	s := testScheme(t)
	_, addrs := startCluster(t, s, 4)

	// Scheme mismatch: client believes a different module count.
	cfg := dialConfig(s, addrs)
	cfg.Modules++
	cfg.AddrSpace += uint64(s.ModuleSize)
	if _, err := Dial(cfg); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("scheme mismatch: got %v", err)
	}

	// Range mismatch: client splits 63 modules over 2 servers, servers were
	// configured for a 4-way split.
	cfg = dialConfig(s, addrs[:2])
	if _, err := Dial(cfg); !errors.Is(err, ErrRangeMismatch) {
		t.Fatalf("range mismatch: got %v", err)
	}

	// Version mismatch: raw handshakes from the previous wire version (v2
	// clients send 45-byte bids carrying a claim word) and from a future one.
	_, g := Geometry(s, 0, 4)
	for _, v := range []uint16{2, Version + 1} {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := Handshake{
			Version: v, Q: g.Q, N: g.N, Modules: g.Modules, AddrSpace: g.AddrSpace,
			RangeLo: g.RangeLo, RangeHi: g.RangeHi,
		}
		if _, err := hello.WriteTo(conn); err != nil {
			t.Fatal(err)
		}
		var ack HandshakeAck
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := ack.ReadFrom(conn); err != nil {
			t.Fatal(err)
		}
		if ack.Status != AckVersionMismatch {
			t.Fatalf("version %d: ack status = %d, want AckVersionMismatch", v, ack.Status)
		}
		if err := ackError(&ack); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("version %d: ackError = %v, want ErrVersionMismatch", v, err)
		}
	}
}

// fakeServer accepts one connection, answers the handshake correctly, then
// hands the connection to the provided misbehaviour.
func fakeServer(t *testing.T, cfg ServerConfig, misbehave func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				var hello Handshake
				if _, err := hello.ReadFrom(conn); err != nil {
					conn.Close()
					return
				}
				ack := HandshakeAck{
					Version: Version, Status: AckOK, Q: cfg.Q, N: cfg.N,
					Modules: cfg.Modules, AddrSpace: cfg.AddrSpace,
					RangeLo: cfg.RangeLo, RangeHi: cfg.RangeHi,
				}
				if _, err := ack.WriteTo(conn); err != nil {
					conn.Close()
					return
				}
				misbehave(conn)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// fakeCluster dials a two-server deployment whose server 0 is a fakeServer
// with the given misbehaviour and whose server 1 is real, so a batch can
// mostly proceed once the fake is marked down.
func fakeCluster(t *testing.T, s *core.Scheme, misbehave func(net.Conn)) (*Transport, *protocol.System) {
	t.Helper()
	_, fcfg := Geometry(s, 0, 2)
	fake := fakeServer(t, fcfg, misbehave)
	real := newServer(s, 1, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go real.Serve(ln)
	t.Cleanup(real.Close)

	cfg := dialConfig(s, []string{fake, ln.Addr().String()})
	cfg.RoundTimeout = 300 * time.Millisecond
	tr, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr, newTCPSystem(t, s, tr)
}

// neverHangs runs batch and fails the test if it is still running after 10 s
// or ends in anything but success or stranding.
func neverHangs(t *testing.T, batch func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- batch() }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch hung")
	}
}

// TestTornReplyNeverHangs covers the server-dies-mid-frame edge: the fake
// server reads a round frame, writes a frame header promising a body it
// never sends, and closes. The client must come back at once with the server
// marked down and ErrCorruptFrame recorded — not hang, not panic.
func TestTornReplyNeverHangs(t *testing.T) {
	s := testScheme(t)
	tr, sys := fakeCluster(t, s, func(conn net.Conn) {
		var frame RoundFrame
		if _, err := frame.ReadFrom(conn); err != nil {
			conn.Close()
			return
		}
		conn.Write([]byte{0, 0, 1, 0, frameRoundReply, 1, 2, 3}) // 256-byte body, 3 sent
		conn.Close()
	})
	neverHangs(t, func() error {
		_, err := sys.WriteBatch([]uint64{0, 1, 2, 3}, []uint64{9, 9, 9, 9})
		return err
	})
	if st := tr.Stats()[0]; st.Up || st.Timeouts != 0 {
		t.Fatalf("torn server: up=%v timeouts=%d, want down with no timeout", st.Up, st.Timeouts)
	}
	if le := tr.servers[0].lastError(); !errors.Is(le, ErrCorruptFrame) {
		t.Fatalf("last error = %v, want ErrCorruptFrame", le)
	}
}

// TestWrongSeqReplyMarksDown: a lock-step connection carries the reply to the
// frame just sent and nothing else, so a well-formed reply with any other
// sequence number is a protocol violation — the server is marked down with
// ErrCorruptFrame and none of the reply's grants is believed. The fake grants
// every bid a value under a timestamp that would win any quorum.
func TestWrongSeqReplyMarksDown(t *testing.T) {
	s := testScheme(t)
	const forged = 0xbad
	tr, sys := fakeCluster(t, s, func(conn net.Conn) {
		defer conn.Close()
		var frame RoundFrame
		for {
			if _, err := frame.ReadFrom(conn); err != nil {
				return
			}
			reply := RoundReply{Seq: frame.Seq + 1}
			for _, b := range frame.Bids {
				reply.Grants = append(reply.Grants, Grant{Proc: b.Proc, Value: forged, TS: 1 << 40})
			}
			if _, err := reply.WriteTo(conn); err != nil {
				return
			}
		}
	})
	vars := make([]uint64, 0, 16)
	for v := uint64(0); v < s.NumVariables && len(vars) < 16; v += 5 {
		vars = append(vars, v)
	}
	neverHangs(t, func() error {
		got, m, err := sys.ReadBatch(vars)
		unfinished := unfinishedSet(m)
		for i, v := range vars {
			if !unfinished[i] && got[i] != 0 {
				t.Errorf("var %d (never written) read %#x", v, got[i])
			}
		}
		return err
	})
	st := tr.Stats()[0]
	if st.Up || st.Frames != 1 || st.Timeouts != 0 {
		t.Fatalf("forging server: up=%v frames=%d timeouts=%d, want down after one frame, no timeout", st.Up, st.Frames, st.Timeouts)
	}
	if le := tr.servers[0].lastError(); !errors.Is(le, ErrCorruptFrame) {
		t.Fatalf("last error = %v, want ErrCorruptFrame", le)
	}
}

// TestForgedGrantsMarkDown: a reply with the right sequence number is still
// believed only if every grant names a bid of the round it answers that went
// to that server, at most once. The fake answers in step but forges: it
// grants every list position up to 64 (most bid at the real server or not at
// all), or each of its own bids twice, all under a timestamp that would win
// any quorum; or, reading variables whose every copy it holds, it answers the
// first round honestly with one grant and then grants a position the first
// round bid at it but the shorter second round's list does not reach — so a
// check against what earlier rounds bid would let it through. The client must
// refuse the whole reply — server down with ErrCorruptFrame at the forged
// frame — and no never-written variable may read the forged value.
func TestForgedGrantsMarkDown(t *testing.T) {
	const forged = 0xbad
	for _, tc := range []struct {
		name   string
		onFake bool // read only variables whose copies all live on the fake server
		frames int64
		grants func(frame *RoundFrame) []Grant
	}{
		{"processors that bid elsewhere", false, 1, func(*RoundFrame) []Grant {
			var gs []Grant
			for p := uint32(0); p < 64; p++ {
				gs = append(gs, Grant{Proc: p, Value: forged, TS: 1 << 40})
			}
			return gs
		}},
		{"a processor granted twice", false, 1, func(frame *RoundFrame) []Grant {
			var gs []Grant
			for _, b := range frame.Bids {
				g := Grant{Proc: b.Proc, Value: forged, TS: 1 << 40}
				gs = append(gs, g, g)
			}
			return gs
		}},
		{"a position beyond this round's list", true, 2, func() func(*RoundFrame) []Grant {
			var last uint32 // the first round's last position; 0 until it is seen
			return func(frame *RoundFrame) []Grant {
				if last == 0 {
					// Every bid of the round is here, at positions 0..n-1. Grant
					// position 0 alone: its request still needs a copy, so the
					// next round lists the other n-1 bids, at 0..n-2.
					last = frame.Bids[len(frame.Bids)-1].Proc
					return []Grant{{Proc: frame.Bids[0].Proc}}
				}
				return []Grant{{Proc: last, Value: forged, TS: 1 << 40}}
			}
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testScheme(t)
			tr, sys := fakeCluster(t, s, func(conn net.Conn) {
				defer conn.Close()
				var frame RoundFrame
				for {
					if _, err := frame.ReadFrom(conn); err != nil {
						return
					}
					reply := RoundReply{Seq: frame.Seq, Grants: tc.grants(&frame)}
					if _, err := reply.WriteTo(conn); err != nil {
						return
					}
				}
			})
			_, fakeHi := Range(0, 2, int64(s.NumModules))
			// The variables on the fake are one phase's worth, ⌊N/(q+1)³⌋:
			// a batch of more plays several phases, whose second round
			// carries the first's leftovers into the next phase's bids and so
			// is not the shorter list the forgery needs.
			size := 16
			if tc.onFake {
				size = int(s.NumModules) / (s.Copies * s.Copies * s.Copies)
			}
			vars := make([]uint64, 0, size)
			for v := uint64(0); v < s.NumVariables && len(vars) < size; v++ {
				if tc.onFake {
					on := true
					for c := 0; c < sys.Mapper.Copies(); c++ {
						if m, _ := sys.Mapper.CopyAddr(v, c); int64(m) >= fakeHi {
							on = false
						}
					}
					if on {
						vars = append(vars, v)
					}
				} else if v%5 == 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				t.Fatal("no variable has every copy on the fake server")
			}
			neverHangs(t, func() error {
				got, m, err := sys.ReadBatch(vars)
				unfinished := unfinishedSet(m)
				for i, v := range vars {
					if !unfinished[i] && got[i] != 0 {
						t.Errorf("var %d (never written) read %#x", v, got[i])
					}
				}
				return err
			})
			st := tr.Stats()[0]
			if st.Up || st.Frames != tc.frames || st.Timeouts != 0 {
				t.Fatalf("forging server: up=%v frames=%d timeouts=%d, want down after %d frames, no timeout", st.Up, st.Frames, st.Timeouts, tc.frames)
			}
			if le := tr.servers[0].lastError(); !errors.Is(le, ErrCorruptFrame) {
				t.Fatalf("last error = %v, want ErrCorruptFrame", le)
			}
		})
	}
}

// TestIdleDeathFoundByNextRound is the idle-death contract: nothing watches a
// connection between rounds, so a server that dies with no round in flight is
// found by the first batch that bids at it — at once, from the EOF the kernel
// already holds, never by waiting out RoundTimeout — and that batch degrades
// like any mid-round death: the whole range fails, values with a live
// majority read back exactly.
func TestIdleDeathFoundByNextRound(t *testing.T) {
	s := testScheme(t)
	const k, victim = 4, 1
	servers, addrs := startCluster(t, s, k)
	cfg := dialConfig(s, addrs)
	cfg.RoundTimeout = 10 * time.Second
	tr, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sys := newTCPSystem(t, s, tr)

	var vars, vals []uint64
	for v := uint64(0); v < s.NumVariables; v += 7 {
		vars = append(vars, v)
		vals = append(vals, 1000+v)
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	servers[victim].Close()
	if n := tr.FaultSet().Count(); n != 0 {
		t.Fatalf("%d modules failed with no round run since the death", n)
	}

	start := time.Now()
	got, m, err := sys.ReadBatch(vars)
	if took := time.Since(start); took > cfg.RoundTimeout/5 {
		t.Fatalf("first batch after an idle death took %v of a %v round timeout", took, cfg.RoundTimeout)
	}
	if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
		t.Fatalf("degraded read: %v", err)
	}
	unfinished := unfinishedSet(m)
	for i, v := range vars {
		if !unfinished[i] && got[i] != vals[i] {
			t.Fatalf("var %d: read %d, want %d", v, got[i], vals[i])
		}
	}
	lo, hi := Range(victim, k, int64(s.NumModules))
	snap := tr.FaultSet().Snapshot()
	for mod := lo; mod < hi; mod++ {
		if !snap.Failed(uint64(mod)) {
			t.Fatalf("module %d of the dead server's range [%d,%d) is not in the fault set", mod, lo, hi)
		}
	}
	if n := tr.FaultSet().Count(); n != int(hi-lo) {
		t.Fatalf("%d modules failed, want the victim's %d", n, hi-lo)
	}
	st := tr.Stats()[victim]
	if st.Up || st.Timeouts != 0 {
		t.Fatalf("victim stats %+v, want down with no timeout", st)
	}
	if le := tr.servers[victim].lastError(); le == nil || errors.Is(le, ErrRoundTimeout) {
		t.Fatalf("last error = %v, want the connection's own failure", le)
	}
}

// clientGoroutines counts the goroutines running transport code on the client
// side (the fake and real servers' handlers live in this process too).
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "netmpc.(*srv).") || strings.Contains(g, "netmpc.(*Transport).") || strings.Contains(g, "netmpc.(*Client).") {
			n++
		}
	}
	return n
}

// TestOnlyReconnectLoopsRun: a healthy transport starts no goroutine, a dead
// server gets exactly one (its reconnect loop), and none is left after Close.
func TestOnlyReconnectLoopsRun(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 2)
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)
	vars := []uint64{1, 5, 9, 13}
	if _, err := sys.WriteBatch(vars, vars); err != nil {
		t.Fatal(err)
	}
	if n := clientGoroutines(); n != 0 {
		t.Fatalf("a healthy transport runs %d goroutines, want 0", n)
	}

	servers[1].Close()
	probeUntilDeath(t, tr, sys, vars)
	if n := clientGoroutines(); n != 1 {
		t.Fatalf("%d transport goroutines with one server down, want its reconnect loop only", n)
	}
	tr.Close()
	// Close has waited for the loop's wg.Done, which the goroutine may still
	// be returning from.
	waitFor(t, time.Second, func() bool { return clientGoroutines() == 0 })
}

// TestConfigDefaults pins Dial's normalisation: a zero RoundTimeout takes
// the default, and a set one is kept.
func TestConfigDefaults(t *testing.T) {
	for set, want := range map[time.Duration]time.Duration{0: defaultRoundTimeout, time.Second: time.Second} {
		cfg := Config{RoundTimeout: set}
		cfg.setDefaults()
		if cfg.RoundTimeout != want {
			t.Errorf("RoundTimeout %v normalised to %v, want %v", set, cfg.RoundTimeout, want)
		}
	}
}

// slowListener's connections sleep before every write, so each reply a
// server sends through one arrives at least that late.
type slowListener struct{ net.Listener }

type slowConn struct{ net.Conn }

const slowDelay = 200 * time.Microsecond

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return slowConn{c}, err
}

func (c slowConn) Write(b []byte) (int, error) {
	time.Sleep(slowDelay)
	return c.Conn.Write(b)
}

// TestRTTP99CoversSlowRounds: a round trip slower than 32 µs must not be
// clamped. Every reply is delayed by 200 µs, so every observed round trip
// is at least that long, and the p99 must say so.
func TestRTTP99CoversSlowRounds(t *testing.T) {
	s := testScheme(t)
	srv := newServer(s, 0, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(slowListener{ln})
	t.Cleanup(srv.Close)
	tr := dial(t, s, []string{ln.Addr().String()})
	sys := newTCPSystem(t, s, tr)
	for v := uint64(0); v < 20; v++ {
		if _, _, err := sys.ReadBatch([]uint64{v}); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats()[0]; st.RTTCount == 0 || st.RTTP99Us < slowDelay.Microseconds() {
		t.Fatalf("RTT p99 %d µs over %d rounds, want at least the %v every round took", st.RTTP99Us, st.RTTCount, slowDelay)
	}
}

// TestServerSurvivesTornRequest is the mirror image: a client dies mid
// frame; the server must drop the connection and keep serving others.
func TestServerSurvivesTornRequest(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 1)

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, g := Geometry(s, 0, 1)
	hello := Handshake{
		Version: Version, Q: g.Q, N: g.N, Modules: g.Modules, AddrSpace: g.AddrSpace,
		RangeLo: g.RangeLo, RangeHi: g.RangeHi,
	}
	if _, err := hello.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	var ack HandshakeAck
	if _, err := ack.ReadFrom(conn); err != nil || ack.Status != AckOK {
		t.Fatalf("handshake: %v status %d", err, ack.Status)
	}
	frame := (&RoundFrame{Seq: 1, Bids: []Bid{{Proc: 0, Module: 1, Addr: 4}}}).append(nil)
	conn.Write(frame[:len(frame)-3]) // torn mid-bid
	conn.Close()

	// The server must still accept and serve a healthy client.
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)
	if _, err := sys.WriteBatch([]uint64{3}, []uint64{33}); err != nil {
		t.Fatal(err)
	}
	if got, _, err := sys.ReadBatch([]uint64{3}); err != nil || got[0] != 33 {
		t.Fatalf("read after torn request: %v %v", got, err)
	}
	_ = servers
}

// TestGracefulShutdownDrains starts a shutdown while a round is in flight:
// the in-flight frame is answered, new connections are refused, and
// Shutdown returns with all handlers joined.
func TestGracefulShutdownDrains(t *testing.T) {
	s := testScheme(t)
	servers, addrs := startCluster(t, s, 1)
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)
	if _, err := sys.WriteBatch([]uint64{0, 1}, []uint64{5, 6}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		servers[0].Shutdown(2 * time.Second)
	}()
	wg.Wait()

	if _, err := Dial(dialConfig(s, addrs)); err == nil {
		t.Fatal("dial succeeded against a shut-down server")
	}
	if served := servers[0].FramesServed(); served == 0 {
		t.Fatal("server reports zero frames served")
	}
}

// TestQuorumCancelsOverWire pins cancel-at-quorum on the wire. Two variables
// share exactly one module (Theorem 2 allows no more), and it holds copy 0 of
// both. In a batch of the two, the first wins that module and the second
// loses it, yet completes its majority on copies 1 and 2 in the same round:
// its losing bid is cancelled there, so the batch costs one frame per touched
// server and no second round. The second variable's copy 0 is then never
// written, and every read quorum must still return the written values.
func TestQuorumCancelsOverWire(t *testing.T) {
	s := testScheme(t)
	const k = 4
	servers, addrs := startCluster(t, s, k)
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)
	copies := sys.Mapper.Copies()
	mods := func(v uint64) []uint64 {
		out := make([]uint64, copies)
		for c := range out {
			out[c], _ = sys.Mapper.CopyAddr(v, c)
		}
		return out
	}
	shared := func(a, b []uint64) int {
		n := 0
		for _, x := range a {
			for _, y := range b {
				if x == y {
					n++
				}
			}
		}
		return n
	}
	var pair []uint64
	firstAt := map[uint64]uint64{} // copy-0 module -> first variable seen there
	for v := uint64(0); v < s.NumVariables && pair == nil; v++ {
		m0 := mods(v)[0]
		if u, ok := firstAt[m0]; !ok {
			firstAt[m0] = v
		} else if shared(mods(u), mods(v)) == 1 {
			pair = []uint64{u, v}
		}
	}
	if pair == nil {
		t.Fatal("no two variables share exactly their copy-0 module")
	}
	touched := make([]bool, k)
	for _, v := range pair {
		for _, m := range mods(v) {
			touched[ServerFor(int64(m), int64(s.NumModules), k)] = true
		}
	}
	oneFramePerServer := func(op string, batch func() (*protocol.Metrics, error)) {
		t.Helper()
		before := make([]uint64, k)
		for i, sv := range servers {
			before[i] = sv.FramesServed()
		}
		met, err := batch()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		for i, sv := range servers {
			want := uint64(0)
			if touched[i] {
				want = 1
			}
			if got := sv.FramesServed() - before[i]; got != want {
				t.Fatalf("%s: server %d served %d frames, want %d", op, i, got, want)
			}
		}
		if met.TotalRounds != 1 || met.IssuedBids != copies*len(pair) {
			t.Fatalf("%s: %d rounds, %d bids; want 1 round, %d bids", op, met.TotalRounds, met.IssuedBids, copies*len(pair))
		}
	}
	vals := []uint64{11, 22}
	oneFramePerServer("write", func() (*protocol.Metrics, error) { return sys.WriteBatch(pair, vals) })
	oneFramePerServer("read", func() (*protocol.Metrics, error) {
		got, met, err := sys.ReadBatch(pair)
		if err == nil && (got[0] != vals[0] || got[1] != vals[1]) {
			t.Fatalf("read %v, wrote %v", got, vals)
		}
		return met, err
	})

	// Every read quorum: bar one copy's module at a time, so the read must be
	// served by the others.
	fs := tr.FaultSet()
	for i, v := range pair {
		for c, m := range mods(v) {
			fs.Fail(m)
			got, _, err := sys.ReadBatch([]uint64{v})
			fs.RecoverPending(m)
			drainRepair(t, sys)
			if err != nil || got[0] != vals[i] {
				t.Fatalf("var %d without copy %d: read %v, err %v; want %d", v, c, got, err, vals[i])
			}
		}
	}
}

// TestNewMachineValidatesGeometry pins the fail-fast on geometry drift
// between the protocol layer and the deployment.
func TestNewMachineValidatesGeometry(t *testing.T) {
	s := testScheme(t)
	_, addrs := startCluster(t, s, 2)
	tr := dial(t, s, addrs)
	if _, err := tr.NewMachine(mpc.Config{Procs: 8, Modules: int(s.NumModules) + 1}); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("got %v, want ErrSchemeMismatch", err)
	}
	if _, err := tr.NewMachine(mpc.Config{Procs: 8, Modules: int(s.NumModules)}); err != nil {
		t.Fatalf("valid geometry refused: %v", err)
	}
}

// TestNewMachineBoundsProcsByBidProc: the processor count is bounded by what
// Bid.Proc carries, no tighter — the highest processor of the largest
// machine a Client accepts round-trips through the wire, and one processor
// more is refused before anything is allocated.
func TestNewMachineBoundsProcsByBidProc(t *testing.T) {
	s := testScheme(t)
	_, addrs := startCluster(t, s, 1)
	tr := dial(t, s, addrs)
	for _, procs := range []int{0, -1, maxProcs + 1} {
		if _, err := tr.NewMachine(mpc.Config{Procs: procs, Modules: int(s.NumModules)}); err == nil {
			t.Errorf("NewMachine accepted %d processors", procs)
		}
	}
	top := RoundFrame{Bids: []Bid{{Proc: maxProcs - 1}}}
	var back RoundFrame
	if err := back.decode(top.append(nil)[headerSize:]); err != nil || back.Bids[0].Proc != maxProcs-1 || maxProcs-1 != math.MaxUint32 {
		t.Fatalf("processor %d does not round-trip as the top of Bid.Proc: %v, %+v", maxProcs-1, err, back.Bids)
	}
}
