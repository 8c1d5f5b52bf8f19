package netmpc

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/protocol"
)

// spreadVars returns variables whose three copies land on three distinct
// servers of a k-way cluster — the placement where losing one server can
// never destroy a committed write (writes touch two copies; at most one is
// on any single server).
func spreadVars(sys *protocol.System, s *core.Scheme, k int) []uint64 {
	var out []uint64
	modules := int64(s.NumModules)
	for v := uint64(0); v < s.NumVariables; v++ {
		seen := map[int]bool{}
		distinct := true
		for c := 0; c < sys.Mapper.Copies(); c++ {
			mod, _ := sys.Mapper.CopyAddr(v, c)
			si := ServerFor(int64(mod), modules, k)
			if seen[si] {
				distinct = false
				break
			}
			seen[si] = true
		}
		if distinct {
			out = append(out, v)
		}
	}
	return out
}

// copyServer returns the server index owning copy c of v.
func copyServer(sys *protocol.System, s *core.Scheme, k int, v uint64, c int) int {
	mod, _ := sys.Mapper.CopyAddr(v, c)
	return ServerFor(int64(mod), int64(s.NumModules), k)
}

// probeUntilDeath reads probe — variables with a copy on the dead server's range —
// until a round has bid at that server and failed its range: a death is
// noticed by the round that meets it, not by anything watching idle
// connections. Reads the death strands are tolerated.
func probeUntilDeath(t *testing.T, tr *Transport, sys *protocol.System, probe []uint64) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		_, _, err := sys.ReadBatch(probe)
		if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			t.Fatalf("degraded read: %v", err)
		}
		return tr.FaultSet().Count() > 0
	})
}

// wipeRestart closes servers[i], waits until the client observes the death,
// then rebinds a brand-new server (fresh in-memory store, fresh generation)
// on the same address and waits for the reconnect to land.
func wipeRestart(t *testing.T, s *core.Scheme, servers []*Server, addrs []string, i, k int, tr *Transport, sys *protocol.System, probe []uint64) {
	t.Helper()
	oldGen := servers[i].Gen()
	servers[i].Close()
	probeUntilDeath(t, tr, sys, probe)
	ln, err := net.Listen("tcp", addrs[i])
	if err != nil {
		t.Fatalf("rebind %s: %v", addrs[i], err)
	}
	servers[i] = newServer(s, i, k)
	if servers[i].Gen() == oldGen {
		t.Fatalf("restarted server minted the same generation %d", oldGen)
	}
	go servers[i].Serve(ln)
	t.Cleanup(servers[i].Close)
	waitFor(t, 5*time.Second, func() bool { return tr.FaultSet().Count() == 0 })
}

// drainRepair pumps the repair sweep until the backlog is empty, as a shard
// dispatcher's idle loop does (batch traffic pumps it too), for at most ten
// seconds.
func drainRepair(t *testing.T, sys *protocol.System) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sys.RepairBacklog() > 0 {
		if !sys.RepairStep() && time.Now().After(deadline) {
			t.Fatalf("repair backlog stuck at %d", sys.RepairBacklog())
		}
	}
}

// TestWipeRestartRepairsOverWire is the happy self-healing path over a real
// cluster: one server is killed and restarted with an empty store. Its range
// is re-admitted through RecoverPending, as every reconnect is; the repair
// sweep rebuilds
// every lost copy over the wire from surviving read majorities (repair
// writes use put-if-newer, wire op 2), and after certification every read
// returns the committed value.
func TestWipeRestartRepairsOverWire(t *testing.T) {
	s := testScheme(t)
	const k = 3
	servers, addrs := startCluster(t, s, k)
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)

	vars := spreadVars(sys, s, k)
	if len(vars) < 4 {
		t.Fatalf("only %d fully spread variables; scheme/cluster shape unusable", len(vars))
	}
	vals := make([]uint64, len(vars))
	model := make(map[uint64]uint64, len(vars))
	for i, v := range vars {
		vals[i] = 1000 + uint64(i)
		model[v] = vals[i]
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatal(err)
	}

	wipeRestart(t, s, servers, addrs, 1, k, tr, sys, vars[:2])
	if sys.RepairBacklog() == 0 {
		t.Fatalf("wiped restart was re-admitted without entering repair")
	}

	drainRepair(t, sys)

	got, _, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	for i, v := range vars {
		if got[i] != model[v] {
			t.Fatalf("var %d = %d after repair, want %d", v, got[i], model[v])
		}
	}
}

// TestWipeRestartNeverServesZeroQuorum is the satellite regression pinned by
// PR 10: wipe-restart every server except the one holding copy 0, then crash
// that last server. Each victim's only fresh copy is now locked in the
// crashed store while two reborn zero-timestamp copies are live. Pre-fix,
// the wiped ranges were re-admitted as fully live, so a read quorum of two
// zero-timestamp cells silently outvoted the committed write — reads
// returned 0 with no error. Post-fix the wiped ranges are barred from read
// quorums until repair certifies them, and repair refuses to certify while
// the fresh copy sits in a crashed store, so every read either errors
// ErrIncomplete or returns the true value. A zero-timestamp quorum never
// wins.
func TestWipeRestartNeverServesZeroQuorum(t *testing.T) {
	s := testScheme(t)
	const k = 3
	servers, addrs := startCluster(t, s, k)
	tr := dial(t, s, addrs)
	sys := newTCPSystem(t, s, tr)

	// Victims: fully spread variables whose copy 0 lives on server 0; their
	// other two copies land on servers 1 and 2, the ones we will wipe.
	var victims []uint64
	for _, v := range spreadVars(sys, s, k) {
		if copyServer(sys, s, k, v, 0) == 0 {
			victims = append(victims, v)
		}
	}
	if len(victims) == 0 {
		t.Fatalf("no victim variables with copy 0 on server 0")
	}
	vals := make([]uint64, len(victims))
	model := make(map[uint64]uint64, len(victims))
	for i, v := range victims {
		vals[i] = 7000 + uint64(i)
		model[v] = vals[i]
	}
	if _, err := sys.WriteBatch(victims, vals); err != nil {
		t.Fatal(err)
	}

	// Servers 1 and 2 die and restart wiped, one at a time: every victim's
	// non-zero copies are now reborn zero-timestamp cells (or, post-fix,
	// possibly already rebuilt — copy 0 is still up at this point).
	wipeRestart(t, s, servers, addrs, 1, k, tr, sys, victims[:1])
	wipeRestart(t, s, servers, addrs, 2, k, tr, sys, victims[:1])

	// Server 0 crashes and stays down: any victim copy that repair has not
	// yet rebuilt is unrecoverable until it returns. The only reachable
	// "quorum" is the two reborn copies — pre-fix both zero-timestamp, and
	// that quorum completed and served 0.
	servers[0].Close()
	probeUntilDeath(t, tr, sys, victims[:1])

	for try := 0; try < 20; try++ {
		got, m, err := sys.ReadBatch(victims)
		if err != nil {
			if !errors.Is(err, protocol.ErrIncomplete) {
				t.Fatalf("try %d: %v", try, err)
			}
			unfinished := unfinishedSet(m)
			for i, v := range victims {
				if !unfinished[i] && got[i] != model[v] {
					t.Fatalf("try %d: var %d completed with %d, want %d or unfinished", try, v, got[i], model[v])
				}
			}
			continue
		}
		for i, v := range victims {
			if got[i] != model[v] {
				t.Fatalf("try %d: read returned %d for var %d, want %d — a zero-timestamp quorum won", try, got[i], v, model[v])
			}
		}
	}

	// The repair sweep must not have certified the wiped range while the
	// fresh copies were locked in the crashed store: the backlog is intact.
	for i := 0; i < 8; i++ {
		sys.RepairStep()
	}
	if sys.RepairBacklog() == 0 {
		t.Fatalf("repair certified the wiped range while its source majority was down")
	}
}

// partitionProxy forwards TCP connections to one server. Cut severs every
// forwarded connection and refuses new ones, as a network partition would,
// while the server and its store keep running; healing lets connections
// through again.
type partitionProxy struct {
	ln      net.Listener
	backend string
	wg      sync.WaitGroup // serve and the forwarding goroutines
	mu      sync.Mutex
	cut     bool
	conns   []net.Conn
}

func startProxy(t *testing.T, backend string) *partitionProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &partitionProxy{ln: ln, backend: backend}
	p.wg.Add(1)
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.setCut(true)
		p.wg.Wait()
	})
	return p
}

func (p *partitionProxy) serve() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		var b net.Conn
		if !p.cut {
			b, _ = net.Dial("tcp", p.backend)
		}
		if b == nil {
			p.mu.Unlock()
			c.Close()
			continue
		}
		p.conns = append(p.conns, c, b)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.forward(c, b)
		go p.forward(b, c)
	}
}

func (p *partitionProxy) forward(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src)
	dst.Close()
	src.Close()
}

// setCut starts (true) or heals (false) the partition.
func (p *partitionProxy) setCut(cut bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cut = cut
	if cut {
		for _, c := range p.conns {
			c.Close()
		}
		p.conns = nil
	}
}

// TestReconnectHealedPartitionRepairs: a partition that heals re-admits the
// server's range through repair, as a restart does. A proxy in front of
// server 1 cuts the client's connection while the server and its store keep
// running, so the server's generation stays the same. Writes commit on the
// survivors meanwhile, and the proxy heals. Right after the reconnect the
// whole range is under repair; after the sweep every committed value reads
// back. The test logs the refused-read window from the reconnect to
// certification.
func TestReconnectHealedPartitionRepairs(t *testing.T) {
	s := testScheme(t)
	const k, victim = 2, 1
	_, addrs := startCluster(t, s, k)
	px := startProxy(t, addrs[victim])
	via := append([]string(nil), addrs...)
	via[victim] = px.ln.Addr().String()
	tr := dial(t, s, via)
	sys := newTCPSystem(t, s, tr)

	// Variables whose writes commit during the partition have at most one
	// copy on the victim; the others lose their read quorum while its range
	// is under repair.
	var vars, writable []uint64
	doubled := 0
	for v := uint64(0); len(vars) < 48; v++ {
		on := 0
		for c := 0; c < sys.Mapper.Copies(); c++ {
			if copyServer(sys, s, k, v, c) == victim {
				on++
			}
		}
		vars = append(vars, v)
		if on <= 1 {
			writable = append(writable, v)
		} else {
			doubled++
		}
	}
	if doubled == 0 || len(writable) == 0 {
		t.Fatalf("%d of %d variables have two copies on server %d; the shape shows no refused-read window", doubled, len(vars), victim)
	}
	model := make(map[uint64]uint64, len(vars))
	vals := make([]uint64, len(vars))
	for i, v := range vars {
		vals[i] = 1000 + v
		model[v] = vals[i]
	}
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		t.Fatal(err)
	}

	px.setCut(true)
	probeUntilDeath(t, tr, sys, vars)
	vals = vals[:len(writable)]
	for i, v := range writable {
		vals[i] = 2000 + v
		model[v] = vals[i]
	}
	if _, err := sys.WriteBatch(writable, vals); err != nil {
		t.Fatalf("write during the partition: %v", err)
	}

	px.setCut(false)
	waitFor(t, 5*time.Second, func() bool { return tr.FaultSet().Count() == 0 })
	healed := time.Now()
	lo, hi := Range(victim, k, int64(s.NumModules))
	if got := tr.FaultSet().RepairCount(); got != int(hi-lo) {
		t.Fatalf("healed range re-admitted with %d of its %d modules under repair", got, hi-lo)
	}

	// Reads pump the sweep, one step per batch, until it certifies.
	batches, refused := 0, 0
	for tr.FaultSet().RepairCount() > 0 {
		if time.Since(healed) > 10*time.Second {
			t.Fatalf("repair did not certify the healed range: %d modules left", tr.FaultSet().RepairCount())
		}
		_, m, err := sys.ReadBatch(vars)
		if err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			t.Fatalf("read during repair: %v", err)
		}
		batches++
		refused += len(m.Unfinished)
	}
	t.Logf("refused-read window: %d reads refused in %d batches of %d over %v, reconnect to certification",
		refused, batches, len(vars), time.Since(healed))

	got, _, err := sys.ReadBatch(vars)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	for i, v := range vars {
		if got[i] != model[v] {
			t.Fatalf("var %d = %d after repair, want %d", v, got[i], model[v])
		}
	}
}
