package netmpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"detshmem/internal/cellstore"
)

// handshakeTimeout bounds how long a freshly accepted connection may take to
// present its handshake before the server drops it.
const handshakeTimeout = 5 * time.Second

// ServerConfig fixes one memserver's identity: the scheme geometry it serves
// (checked against every client handshake) and the contiguous module range
// it owns.
type ServerConfig struct {
	// Q and N are the PP93 scheme parameters (base-field order, extension
	// degree); zero for deployments using a generic mapper. They are opaque
	// to the server — it only refuses clients that disagree.
	Q, N uint32
	// Modules is the machine's total module count, AddrSpace the flat
	// copy-address space (Modules * ModuleSize).
	Modules   uint64
	AddrSpace uint64
	// RangeLo (inclusive) and RangeHi (exclusive) delimit the module range
	// this server owns. Bids outside the range are a protocol violation.
	RangeLo, RangeHi uint64
	// Logf, when set, receives connection-level diagnostics (handshake
	// rejections, corrupt frames). Nil silences them.
	Logf func(format string, args ...any)
}

// store is one StoreID's namespace: the ABD server state, the shared paged
// cell array behind a mutex. A client holds one connection per server, so the
// mutex sees contention on reconnects and deliberately shared StoreIDs only.
type store struct {
	mu    sync.Mutex
	cells *cellstore.Store
}

// arbiter is one connection's arbitration scratch: win is indexed by module
// offset within the server's range and holds the winning bid's index plus
// one (zero = no bid yet this round); touched lists the offsets bid for, in
// first-bid order, which is the order the grants leave in.
type arbiter struct {
	win     []int32
	touched []uint32
}

// Server serves a contiguous module range to netmpc clients: it validates
// handshakes against its geometry, grants each module of a round frame to
// the lowest processor bidding at it (identical to the in-process engine),
// applies the winning bid's operation to the per-StoreID store, and replies
// with the grant set.
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	stores map[uint32]*store

	wg       sync.WaitGroup
	draining atomic.Bool

	// gen is the store generation: minted once per server lifetime, carried
	// in every handshake ack and printed by memserver. The stores are
	// in-memory, so a restart is a wipe and mints a new generation.
	gen uint64

	// frames counts served round frames, for tests and operational logging.
	frames atomic.Uint64
}

// genSeq disambiguates servers minted in the same clock tick (tests start
// whole clusters in a few microseconds).
var genSeq atomic.Uint64

// NewServer builds a server for the given geometry and module range, minting
// a fresh store generation.
func NewServer(cfg ServerConfig) *Server {
	return &Server{
		cfg:    cfg,
		gen:    uint64(time.Now().UnixNano())<<8 | (genSeq.Add(1)&0xff | 1),
		conns:  make(map[net.Conn]struct{}),
		stores: make(map[uint32]*store),
	}
}

// Gen returns the server's store generation.
func (s *Server) Gen() uint64 { return s.gen }

// Serve accepts connections on ln until the listener closes, blocking the
// caller. It returns nil after a Shutdown/Close-initiated stop and the
// accept error otherwise. On a server already stopped it closes ln and
// returns nil, so a Close that runs before Serve starts still stops it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Listen is Serve over a fresh TCP listener on addr; it stores the listener
// so Addr works, and blocks like Serve.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the serving listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// FramesServed returns the number of round frames processed.
func (s *Server) FramesServed() uint64 { return s.frames.Load() }

// Shutdown stops the server gracefully: new connections and new frames are
// refused, handlers get up to grace to finish (and reply to) a frame already
// in flight, and all handler goroutines are joined before it returns. After
// Shutdown the server is done — Serve has returned or will return nil.
func (s *Server) Shutdown(grace time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		s.wg.Wait()
		return
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	deadline := time.Now().Add(grace)
	for conn := range s.conns {
		// A read blocked waiting for the next frame fails at the deadline; a
		// frame already buffered or mid-flight is read and served within the
		// grace window. Handlers also check the draining flag between frames.
		conn.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Close stops the server immediately: the listener and every connection are
// torn down without waiting for in-flight frames.
func (s *Server) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// storeFor returns (creating on first use) the namespace for one StoreID.
func (s *Server) storeFor(id uint32) *store {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stores[id]
	if st == nil {
		st = &store{cells: cellstore.New(s.cfg.AddrSpace)}
		s.stores[id] = st
	}
	return st
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handshake validates the client's hello against the server geometry and
// returns the ack status.
func (s *Server) ackStatus(h *Handshake) uint8 {
	switch {
	case s.draining.Load():
		return AckDraining
	case h.Version != Version:
		return AckVersionMismatch
	case h.Q != s.cfg.Q || h.N != s.cfg.N || h.Modules != s.cfg.Modules || h.AddrSpace != s.cfg.AddrSpace:
		return AckSchemeMismatch
	case h.RangeLo != s.cfg.RangeLo || h.RangeHi != s.cfg.RangeHi:
		return AckRangeMismatch
	default:
		return AckOK
	}
}

// handle runs one connection: handshake, then the round-serving loop until
// the peer disconnects, a frame is corrupt, or the server drains.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)

	// One buffered reader for the connection's whole life, so a frame's
	// length prefix and body arrive in one read.
	br := bufio.NewReaderSize(conn, readBufSize)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var hello Handshake
	scratch, err := readMsg(br, nil, &hello)
	if err != nil {
		s.logf("netmpc: %s: handshake read: %v", conn.RemoteAddr(), err)
		return
	}
	ack := HandshakeAck{
		Version:   Version,
		Status:    s.ackStatus(&hello),
		Q:         s.cfg.Q,
		N:         s.cfg.N,
		Modules:   s.cfg.Modules,
		AddrSpace: s.cfg.AddrSpace,
		RangeLo:   s.cfg.RangeLo,
		RangeHi:   s.cfg.RangeHi,
		Gen:       s.gen,
	}
	if scratch, err = writeMsg(conn, scratch, &ack); err != nil {
		return
	}
	if ack.Status != AckOK {
		s.logf("netmpc: %s: handshake rejected, status %d", conn.RemoteAddr(), ack.Status)
		return
	}
	conn.SetReadDeadline(time.Time{})

	st := s.storeFor(hello.StoreID)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	var (
		frame RoundFrame
		reply RoundReply
		arb   = s.newArbiter()
	)
	for !s.draining.Load() {
		if scratch, err = readMsg(br, scratch, &frame); err != nil {
			if !isClosedOrEOF(err) && !s.draining.Load() {
				s.logf("netmpc: %s: round frame: %v", conn.RemoteAddr(), err)
			}
			return
		}
		reply.Seq = frame.Seq
		reply.Grants = reply.Grants[:0]
		if err := s.serveRound(st, &frame, &reply, arb); err != nil {
			s.logf("netmpc: %s: %v", conn.RemoteAddr(), err)
			return
		}
		s.frames.Add(1)
		if scratch, err = writeMsg(conn, scratch, &reply); err != nil {
			return
		}
	}
}

// newArbiter sizes a connection's scratch for the server's module range (an
// empty range rejects every bid before win is indexed).
func (s *Server) newArbiter() *arbiter {
	arb := &arbiter{}
	if s.cfg.RangeHi > s.cfg.RangeLo {
		arb.win = make([]int32, s.cfg.RangeHi-s.cfg.RangeLo)
	}
	return arb
}

// serveRound arbitrates one frame and applies each winner's staged
// operation to the store, collecting the grant set into reply. A frame's bid
// positions strictly ascend, so the first claim on a module is the lowest
// processor bidding there — the in-process engine's rule, applied as
// mpc.Machine.Claim does; a frame whose positions do not ascend is corrupt.
func (s *Server) serveRound(st *store, frame *RoundFrame, reply *RoundReply, arb *arbiter) error {
	// Undo the previous round's marks here, not after serving it, so a frame
	// rejected halfway leaves nothing behind either.
	for _, m := range arb.touched {
		arb.win[m] = 0
	}
	arb.touched = arb.touched[:0]
	for i := range frame.Bids {
		b := &frame.Bids[i]
		if b.Module < s.cfg.RangeLo || b.Module >= s.cfg.RangeHi {
			return fmt.Errorf("%w: bid at module %d outside range [%d,%d)", ErrCorruptFrame, b.Module, s.cfg.RangeLo, s.cfg.RangeHi)
		}
		if b.Addr >= s.cfg.AddrSpace {
			return fmt.Errorf("%w: bid address %d outside space %d", ErrCorruptFrame, b.Addr, s.cfg.AddrSpace)
		}
		if b.Op > opReadWrite {
			return fmt.Errorf("%w: bid op %d is not read, write, repair-write or read-write", ErrCorruptFrame, b.Op)
		}
		if i > 0 && b.Proc <= frame.Bids[i-1].Proc {
			return fmt.Errorf("%w: bid position %d follows %d; positions must ascend", ErrCorruptFrame, b.Proc, frame.Bids[i-1].Proc)
		}
		if m := uint32(b.Module - s.cfg.RangeLo); arb.win[m] == 0 {
			arb.win[m] = int32(i + 1)
			arb.touched = append(arb.touched, m)
		}
	}
	st.mu.Lock()
	for _, m := range arb.touched {
		b := &frame.Bids[arb.win[m]-1]
		g := Grant{Proc: b.Proc}
		switch b.Op {
		case opRead:
			c := st.cells.Get(b.Addr)
			g.Value, g.TS = c.Val, c.TS
		case opWrite:
			st.cells.Put(b.Addr, cellstore.Cell{Val: b.Value, TS: b.TS})
		case opRepair: // install only if strictly newer, so a rebuild never
			// clobbers a concurrent normal write that already landed.
			st.cells.PutIfNewer(b.Addr, cellstore.Cell{Val: b.Value, TS: b.TS})
		case opReadWrite:
			c := st.cells.Get(b.Addr)
			g.Value, g.TS = c.Val, c.TS
			st.cells.Put(b.Addr, cellstore.Cell{Val: b.Value, TS: b.TS})
		}
		reply.Grants = append(reply.Grants, g)
	}
	st.mu.Unlock()
	return nil
}

// isClosedOrEOF reports whether err is an orderly disconnect (clean close
// between frames, our own deadline, a reset) rather than a protocol problem
// worth logging. A torn frame — the peer dying mid-write — is deliberately
// not orderly: it wraps ErrCorruptFrame and gets logged.
func isClosedOrEOF(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
