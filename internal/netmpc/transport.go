package netmpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// maxProcs is the largest machine a Client serves: a round lists at most
// that many bids, and Bid.Proc (uint32) carries every position 0..maxProcs-1.
const maxProcs = 1 << 32

const (
	// defaultRoundTimeout is Config.RoundTimeout's zero value.
	defaultRoundTimeout = 2 * time.Second
	// dialTimeout bounds each connect+handshake.
	dialTimeout = 3 * time.Second
	// reconnectMin and reconnectMax bound the exponential backoff of the
	// per-server reconnect loop that runs after a server is marked down.
	reconnectMin = 10 * time.Millisecond
	reconnectMax = 200 * time.Millisecond
)

// ErrNoServers is returned by Dial when Config.Servers is empty.
var ErrNoServers = errors.New("netmpc: no servers configured")

// ErrClosed is returned for operations on a closed transport.
var ErrClosed = errors.New("netmpc: transport closed")

// ErrRoundTimeout marks a server that failed to answer a round frame within
// Config.RoundTimeout; it appears in Stats().LastErr when a slow server was
// declared down.
var ErrRoundTimeout = errors.New("netmpc: round timeout")

// Config describes a networked MPC deployment from the client side.
type Config struct {
	// Servers lists the memserver addresses in range order: server i owns
	// the contiguous module range Range(i, len(Servers), Modules).
	Servers []string
	// Q and N are the scheme parameters pinned by the handshake (zero for
	// generic mappers); Modules and AddrSpace fix the machine geometry.
	Q, N      uint32
	Modules   int64
	AddrSpace uint64
	// StoreID namespaces this client's cells on the servers. Two transports
	// with distinct StoreIDs sharing one server cluster see disjoint
	// memories — one protocol.System per StoreID, exactly like two Systems
	// each owning a local store.
	StoreID uint32
	// RoundTimeout bounds one round's fan-out/gather before the slow
	// servers are declared failed.
	RoundTimeout time.Duration
}

// Geometry is the one place a PP93 scheme becomes wire geometry. It returns
// the client Config for a cluster of k servers over s, whose Servers,
// StoreID and RoundTimeout are the caller's, and the ServerConfig of server
// i of them, which owns Range(i, k, NumModules).
func Geometry(s *core.Scheme, i, k int) (Config, ServerConfig) {
	space := s.NumModules * uint64(s.ModuleSize)
	lo, hi := Range(i, k, int64(s.NumModules))
	return Config{Q: s.Q, N: uint32(s.Deg), Modules: int64(s.NumModules), AddrSpace: space},
		ServerConfig{
			Q: s.Q, N: uint32(s.Deg), Modules: s.NumModules, AddrSpace: space,
			RangeLo: uint64(lo), RangeHi: uint64(hi),
		}
}

// Range returns the contiguous module range [lo, hi) owned by server i of
// nServers over modules total modules — the one formula shared by clients,
// memserver invocations, and the cluster harness, so everybody agrees on
// who owns what.
func Range(i, nServers int, modules int64) (lo, hi int64) {
	return int64(i) * modules / int64(nServers), int64(i+1) * modules / int64(nServers)
}

// ServerFor returns the index of the server owning module m under Range.
func ServerFor(m, modules int64, nServers int) int {
	// Inverse of Range's lo = i*modules/n: candidate i = m*n/modules, with
	// a bounded correction for integer-division edges.
	i := int(m * int64(nServers) / modules)
	for {
		lo, hi := Range(i, nServers, modules)
		switch {
		case m < lo:
			i--
		case m >= hi:
			i++
		default:
			return i
		}
	}
}

// srv is the per-server connection state. While the server is up, the round
// in progress (serialized by Transport.roundMu) is the only code that writes
// to or reads from conn; once markDown has cleared it, the reconnect loop owns
// conn and br until it publishes a new connection under writeMu.
type srv struct {
	idx      int
	addr     string
	lo, hi   int64 // owned module range, [lo, hi)
	t        *Transport
	up       atomic.Bool
	reconn   atomic.Bool // a reconnect loop is running
	writeMu  sync.Mutex  // guards conn and br swaps, and writes
	conn     net.Conn
	br       *bufio.Reader // over conn; a frame's prefix and body cost one read
	wbuf     []byte
	rbuf     []byte
	reply    RoundReply    // the one reply decoded per round, reused
	seq      uint64        // last sequence number sent (rounds are serialized)
	lastErr  atomic.Value  // errBox; last failure, for Stats
	frames   obs.Counter   // round frames sent
	bids     obs.Counter   // bids sent
	recon    obs.Counter   // successful reconnects
	timeouts obs.Counter   // replies not begun by the round's deadline
	rtt      obs.Histogram // per-frame round-trip, microseconds
}

// Transport is the TCP implementation of protocol.Transport: persistent
// per-server connections, lock-step round fan-out (one frame per touched
// server, all replies gathered before the next round), and degradation onto an
// mpc.FaultSet so the protocol's quorum re-selection and retry machinery
// (PR 5) treats a dead server exactly like a span of failed modules.
//
// A healthy Transport runs no goroutine of its own: the round that writes a
// frame reads its reply. A server that dies between rounds is therefore found
// by the next round that bids at it, from the EOF or reset the kernel already
// holds — at once, at the cost of that round's bids to it — and only then
// does a reconnect loop start for it.
//
// A Transport backs one protocol.System (one StoreID namespace). The caller
// owns its lifetime: the System never closes it, machines built over it are
// lightweight views, and Close tears down connections and reconnect loops.
type Transport struct {
	cfg     Config
	fs      *mpc.FaultSet
	servers []*srv
	closed  atomic.Bool
	roundMu sync.Mutex // serializes Round exchanges across machine instances
	wg      sync.WaitGroup
}

// Dial connects and handshakes with every configured server, failing fast —
// with ErrVersionMismatch, ErrSchemeMismatch, or ErrRangeMismatch when the
// cluster disagrees with this client's scheme — rather than letting a
// misconfigured client run. After Dial succeeds, server loss is handled by
// degradation, not errors.
func Dial(cfg Config) (*Transport, error) {
	if len(cfg.Servers) == 0 {
		return nil, ErrNoServers
	}
	if cfg.Modules <= 0 || cfg.AddrSpace == 0 {
		return nil, fmt.Errorf("netmpc: need positive Modules and AddrSpace, got %d/%d", cfg.Modules, cfg.AddrSpace)
	}
	cfg.setDefaults()
	t := &Transport{cfg: cfg, fs: mpc.NewFaultSet()}
	for i, addr := range cfg.Servers {
		lo, hi := Range(i, len(cfg.Servers), cfg.Modules)
		s := &srv{idx: i, addr: addr, lo: lo, hi: hi, t: t}
		conn, err := t.dialServer(s)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("netmpc: server %d (%s): %w", i, addr, err)
		}
		s.conn = conn
		s.br = bufio.NewReaderSize(conn, readBufSize)
		s.up.Store(true)
		t.servers = append(t.servers, s)
	}
	return t, nil
}

// setDefaults fills a zero RoundTimeout.
func (cfg *Config) setDefaults() {
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = defaultRoundTimeout
	}
}

// FaultSet exposes the transport's fault set: server loss appears here as
// the server's whole module range failing, and experiments can observe or
// seed it.
func (t *Transport) FaultSet() *mpc.FaultSet { return t.fs }

// NewMachine implements protocol.Transport: a lightweight Client view over
// the shared connections. The geometry's module count must match the
// deployment; the processor count is bounded only by what Bid.Proc carries
// (maxProcs).
func (t *Transport) NewMachine(cfg mpc.Config) (protocol.Machine, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	if int64(cfg.Modules) != t.cfg.Modules {
		return nil, fmt.Errorf("%w: machine wants %d modules, deployment has %d", ErrSchemeMismatch, cfg.Modules, t.cfg.Modules)
	}
	if cfg.Procs <= 0 || uint64(cfg.Procs) > maxProcs {
		return nil, fmt.Errorf("netmpc: bad processor count %d", cfg.Procs)
	}
	return newClient(t, cfg), nil
}

// Close tears down every connection and joins the reconnect loops. Machines
// built over the transport stop granting; the owning System should be closed
// first.
func (t *Transport) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		t.wg.Wait()
		return
	}
	for _, s := range t.servers {
		s.writeMu.Lock()
		if s.conn != nil {
			s.conn.Close()
		}
		s.writeMu.Unlock()
	}
	t.wg.Wait()
}

// dialServer opens and handshakes one connection, returning typed errors on
// parameter disagreement.
func (t *Transport) dialServer(s *srv) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	hello := Handshake{
		Version:   Version,
		Q:         t.cfg.Q,
		N:         t.cfg.N,
		Modules:   uint64(t.cfg.Modules),
		AddrSpace: t.cfg.AddrSpace,
		StoreID:   t.cfg.StoreID,
		RangeLo:   uint64(s.lo),
		RangeHi:   uint64(s.hi),
	}
	if _, err := hello.WriteTo(conn); err != nil {
		conn.Close()
		return nil, err
	}
	var ack HandshakeAck
	if _, err := ack.ReadFrom(conn); err != nil {
		conn.Close()
		return nil, err
	}
	if err := ackError(&ack); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// ackError maps a handshake ack onto the typed error taxonomy.
func ackError(ack *HandshakeAck) error {
	switch ack.Status {
	case AckOK:
		return nil
	case AckVersionMismatch:
		return fmt.Errorf("%w: client %d, server %d", ErrVersionMismatch, Version, ack.Version)
	case AckSchemeMismatch:
		return fmt.Errorf("%w: server has q=%d n=%d modules=%d addrspace=%d", ErrSchemeMismatch, ack.Q, ack.N, ack.Modules, ack.AddrSpace)
	case AckRangeMismatch:
		return fmt.Errorf("%w: server owns [%d,%d)", ErrRangeMismatch, ack.RangeLo, ack.RangeHi)
	case AckDraining:
		return fmt.Errorf("netmpc: server draining")
	default:
		return fmt.Errorf("%w: unknown ack status %d", ErrCorruptFrame, ack.Status)
	}
}

// markDown transitions the server to failed if conn is still its current
// connection: the connection closes, every module in the server's range
// joins the fault set (the protocol layer re-selects quorums over the
// survivors exactly as for module failures), and a reconnect loop starts.
func (s *srv) markDown(conn net.Conn, cause error) {
	s.writeMu.Lock()
	if s.conn != conn {
		s.writeMu.Unlock()
		return // a newer connection superseded this one
	}
	s.conn = nil
	s.writeMu.Unlock()
	conn.Close()
	if cause != nil {
		s.lastErr.Store(errBox{cause})
	}
	if s.up.CompareAndSwap(true, false) {
		s.t.fs.FailRange(uint64(s.lo), uint64(s.hi))
	}
	if !s.t.closed.Load() && s.reconn.CompareAndSwap(false, true) {
		s.t.wg.Add(1)
		go s.reconnectLoop()
	}
}

// reconnectLoop redials with exponential backoff until the server answers a
// valid handshake again, then re-admits its module range through
// RecoverPendingRange: the range serves write quorums at once and read
// quorums only after the repair sweep has rebuilt and certified it. That
// holds whether the server restarted with an empty store or kept its store
// through a partition: a kept store has missed the writes made while it was
// down, and read quorums leaning on its copies could hide again a stranded
// write that a reader has already seen.
// Parameter-mismatch rejections keep retrying at max backoff: an operator
// may be mid-redeploy, and the range stays failed until geometry agrees.
func (s *srv) reconnectLoop() {
	defer s.t.wg.Done()
	backoff := reconnectMin
	for !s.t.closed.Load() {
		time.Sleep(backoff)
		if s.t.closed.Load() {
			return
		}
		conn, err := s.t.dialServer(s)
		if err != nil {
			s.lastErr.Store(errBox{err})
			backoff = min(2*backoff, reconnectMax)
			continue
		}
		s.writeMu.Lock()
		if s.t.closed.Load() {
			s.writeMu.Unlock()
			conn.Close()
			return
		}
		// Publish the connection, mark the server up, re-admit the range and
		// retire this loop in one critical section. A round reaches the new
		// connection only through writeMu (send), so if it loses it at once,
		// its markDown fails the range after this re-admission and finds no
		// loop running; up goes first so that whoever sees the range
		// re-admitted also finds the server up.
		s.conn = conn
		s.br.Reset(conn) // whatever the dead connection left buffered is gone
		s.up.Store(true)
		s.recon.Inc()
		s.t.fs.RecoverPendingRange(uint64(s.lo), uint64(s.hi))
		s.reconn.Store(false)
		s.writeMu.Unlock()
		return
	}
}

// send writes one framed round to the server and returns the connection it
// went out on, or nil (with the server marked down) on any failure.
func (s *srv) send(frame *RoundFrame) net.Conn {
	s.writeMu.Lock()
	conn := s.conn
	if conn == nil {
		s.writeMu.Unlock()
		return nil
	}
	buf, err := writeMsg(conn, s.wbuf, frame)
	s.wbuf = buf
	s.writeMu.Unlock()
	if err != nil {
		s.markDown(conn, err)
		return nil
	}
	s.frames.Inc()
	s.bids.Add(int64(len(frame.Bids)))
	return conn
}

// recv reads the reply to the frame send just wrote on conn, which must
// arrive by deadline, carry the frame's sequence number — nothing else can be
// on a lock-step connection — and grant only bids of this round's list that
// went to this server (bidAt[i] == s.idx, bidAt as long as the list), each
// once; the whole reply is checked before any of it is believed. A dead peer fails the read at once; a silent one
// fails it at the deadline; a reply that is not the one asked for is a
// corrupt stream. Either way the server is marked down and recv returns nil.
func (s *srv) recv(conn net.Conn, deadline time.Time, bidAt []int32) *RoundReply {
	conn.SetReadDeadline(deadline)
	var err error
	s.rbuf, err = readMsg(s.br, s.rbuf, &s.reply)
	if err == nil {
		if err = s.reply.answers(s.seq, bidAt, s.idx); err == nil {
			return &s.reply
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.timeouts.Inc()
		err = ErrRoundTimeout
	}
	s.markDown(conn, err)
	return nil
}

// answers checks that r is server si's reply to frame seq: the sequence
// number echoes the frame's, and every grant names a position of the round's
// list (bidAt, exactly as long as the list — a position beyond it may have
// bid in an earlier, longer round) whose bid went to si, once (a believed
// grant's bidAt entry becomes -1).
func (r *RoundReply) answers(seq uint64, bidAt []int32, si int) error {
	if r.Seq != seq {
		return fmt.Errorf("%w: reply to frame %d, want %d", ErrCorruptFrame, r.Seq, seq)
	}
	for _, g := range r.Grants {
		if int(g.Proc) >= len(bidAt) || bidAt[g.Proc] != int32(si) {
			return fmt.Errorf("%w: server %d granted bid %d, which is not in this round's list, did not go there or was granted twice", ErrCorruptFrame, si, g.Proc)
		}
		bidAt[g.Proc] = -1
	}
	return nil
}

// ServerStats is one server's transport-health snapshot. Timeouts counts the
// rounds in which the server's reply had not begun to arrive by RoundTimeout;
// a connection lost any other way shows in LastErr and Reconnects only.
type ServerStats struct {
	Addr       string
	Up         bool
	Frames     int64
	Bids       int64
	Reconnects int64
	Timeouts   int64
	RTTCount   int64
	RTTSumUs   int64
	RTTP99Us   int64
	// MaxInFlight is the most frames the connection ever had outstanding.
	// Rounds are lock-step, so that is 1 once a frame has been sent; the field
	// stays for callers that report it.
	MaxInFlight int64
	LastErr     string
}

// Stats snapshots per-server transport health: liveness, frame and bid
// counts, reconnects, timeouts and the RTT histogram's count/sum/p99.
func (t *Transport) Stats() []ServerStats {
	out := make([]ServerStats, len(t.servers))
	for i, s := range t.servers {
		st := ServerStats{
			Addr:        s.addr,
			Up:          s.up.Load(),
			Frames:      s.frames.Load(),
			Bids:        s.bids.Load(),
			Reconnects:  s.recon.Load(),
			Timeouts:    s.timeouts.Load(),
			RTTCount:    s.rtt.Count(),
			RTTSumUs:    s.rtt.Sum(),
			RTTP99Us:    histP99(&s.rtt),
			MaxInFlight: min(s.frames.Load(), 1),
		}
		if e := s.lastError(); e != nil {
			st.LastErr = e.Error()
		}
		out[i] = st
	}
	return out
}

// errBox gives atomic.Value the single concrete type it requires while the
// boxed error's own type varies.
type errBox struct{ err error }

// lastError returns the server's most recent failure, or nil.
func (s *srv) lastError() error {
	if b, ok := s.lastErr.Load().(errBox); ok {
		return b.err
	}
	return nil
}

// histP99 estimates a histogram's p99 as the upper bound of the bucket
// containing the 99th percentile observation.
func histP99(h *obs.Histogram) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := (total*99 + 99) / 100
	acc := int64(0)
	for b, n := range h.Buckets() {
		acc += n
		if acc >= target {
			return obs.BucketUpper(b)
		}
	}
	return obs.BucketUpper(obs.HistBuckets - 1)
}
