// Package netmpc promotes the Module Parallel Computer interconnect from a
// function call to a real network: contiguous module ranges live on remote
// memserver processes (cmd/memserver), and clients hold a thin library that
// evaluates the compiled constructive map locally — the paper's whole point
// is that O(1)-register address resolution needs no directory service — and
// fans each synchronous round's bids out over persistent per-server TCP
// connections. Rounds are lock-step, like the paper's machine: a round sends
// one frame to every server it touches and reads each one's reply itself
// before the next round starts, so a connection carries at most one
// outstanding frame and the client runs no goroutine while its servers are
// up. Nothing watches an idle connection: a server that dies between rounds
// is found by the next round that bids at it — at once, from the EOF or reset
// the kernel already holds — and that round's bids to it drop and retry like
// those of any mid-round death.
//
// The wire protocol is length-prefixed binary frames. Every wire type
// carries the lattigo-style serialization triple — BinarySize, WriteTo,
// ReadFrom — and a versioned handshake carries the scheme parameters (q, n,
// module count, address space), so a client compiled against a different
// scheme or protocol version fails fast with a typed error instead of
// corrupting memory.
//
// Fault model: a dead, unreachable, or slow server degrades exactly like a
// failed memory module. The client maps connection errors, handshake
// failures mid-run, and round timeouts onto an mpc.FaultSet covering the
// server's module range, so the protocol layer's quorum re-selection,
// bounded retry waves, and per-request ErrQuorumUnreachable verdicts (PR 5)
// apply unchanged — the static-fault regime of Chlebus–Gasieniec–Pelc,
// entered dynamically.
package netmpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the wire-protocol version carried by the handshake. Bump it on
// any frame-layout change; mismatched peers fail the handshake with
// ErrVersionMismatch. Version 2 added HandshakeAck.Gen, a store-generation
// token that no client reads any more; version 3 dropped the per-bid
// arbitration claim and the frame's round counter (bids 45 → 37 bytes):
// servers arbitrate lowest-processor-wins from Bid.Proc; version 4
// added bid op 3, read-write, whose grant carries the cell as it was before
// the write.
const Version uint16 = 4

// Frame type tags.
const (
	frameHandshake    byte = 1
	frameHandshakeAck byte = 2
	frameRound        byte = 3
	frameRoundReply   byte = 4
)

// maxFrameSize bounds a frame body (type byte + payload): large enough for
// a full round of bids at the largest supported machine geometry, small
// enough that a corrupt length prefix cannot make a reader allocate
// gigabytes.
const maxFrameSize = 1 << 24

// headerSize is the frame envelope: a uint32 body length plus the type tag.
const headerSize = 5

// readBufSize is the buffered reader each side puts in front of a
// connection, so that a frame's length prefix and body cost one read; frames
// beyond it (a full PRAM step's bids) are read straight into the scratch.
const readBufSize = 16 << 10

// Wire-level typed errors. Every decode or handshake failure surfaces as
// (or wraps) one of these, so callers branch with errors.Is.
var (
	// ErrCorruptFrame marks a frame that could not be decoded: truncated
	// body, trailing garbage, an inconsistent element count, or an
	// unexpected frame type.
	ErrCorruptFrame = errors.New("netmpc: corrupt frame")
	// ErrFrameTooLarge marks a length prefix beyond maxFrameSize — either
	// corruption or a hostile peer; the connection is unusable.
	ErrFrameTooLarge = errors.New("netmpc: frame exceeds size bound")
	// ErrVersionMismatch is returned when client and server disagree on the
	// wire-protocol version.
	ErrVersionMismatch = errors.New("netmpc: wire version mismatch")
	// ErrSchemeMismatch is returned when the handshake's scheme parameters
	// (q, n, modules, address space) disagree — the client would compute
	// copy addresses the server does not serve.
	ErrSchemeMismatch = errors.New("netmpc: scheme parameters mismatch")
	// ErrRangeMismatch is returned when the client's view of the server's
	// module range disagrees with the server's own.
	ErrRangeMismatch = errors.New("netmpc: module range mismatch")
)

// Handshake opens every connection, client to server. It pins the wire
// version and the scheme geometry: the base-field order q and extension
// degree n when the deployment runs the PP93 scheme (zero for generic
// mappers), the module count, the flat copy-address space, and the module
// range the client believes this server owns. StoreID namespaces the
// server's store so independent systems (one per shard) can share one
// server process without colliding in the address space.
type Handshake struct {
	Version   uint16
	Q, N      uint32
	Modules   uint64
	AddrSpace uint64
	StoreID   uint32
	RangeLo   uint64 // inclusive
	RangeHi   uint64 // exclusive
}

// Handshake ack status codes.
const (
	AckOK uint8 = iota
	AckVersionMismatch
	AckSchemeMismatch
	AckRangeMismatch
	AckDraining
)

// HandshakeAck is the server's reply: its own version and geometry, and a
// status code. On any non-OK status the server closes the connection after
// the ack, and the client maps the code to the matching typed error.
//
// Gen is the server's store generation: a token minted once per store
// lifetime (process start, or explicit wipe). The client does not read it: a
// reconnected range goes through copy repair before it serves read quorums
// whether its store survived or not. The field stays so that the layout of
// version 4 does not change; the next version bump can reuse its slot.
type HandshakeAck struct {
	Version   uint16
	Status    uint8
	Q, N      uint32
	Modules   uint64
	AddrSpace uint64
	RangeLo   uint64
	RangeHi   uint64
	Gen       uint64
}

// Bid is one processor's request in one round: the bid's position in the
// client's round list, which is in ascending processor order (a frame's
// positions strictly ascend, so a module serving the first bid at it serves
// the lowest processor, the rule mpc.Machine applies in process), the target
// module, and the staged access payload the winning module applies.
type Bid struct {
	Proc   uint32
	Module uint64
	Addr   uint64
	Op     uint8 // opRead, opWrite, opRepair or opReadWrite; a server refuses any other
	Value  uint64
	TS     uint64
}

// The wire ops, one per protocol.Op that may reach a module (the client's
// wireOp maps them). Read, Write and ReadWrite are the user's — a read-write reads the
// cell and then overwrites it, and its grant carries the cell it read; a
// repair-write installs its cell only if newer.
const (
	opRead uint8 = iota
	opWrite
	opRepair
	opReadWrite
)

// bidSize is the fixed encoding size of one Bid.
const bidSize = 4 + 8 + 8 + 1 + 8 + 8

// RoundFrame carries every bid a client directs at one server in one
// synchronous round. Seq numbers the connection's frames and the reply echoes
// it: the client accepts the reply to the frame it just sent and treats any
// other as a corrupt stream.
type RoundFrame struct {
	Seq  uint64
	Bids []Bid
}

// Grant is one granted bid in a round reply: the winning processor and, for
// reads, the cell's current value and timestamp.
type Grant struct {
	Proc  uint32
	Value uint64
	TS    uint64
}

// grantSize is the fixed encoding size of one Grant.
const grantSize = 4 + 8 + 8

// RoundReply answers a RoundFrame: one Grant per module that served a bid
// (each module grants at most one request per round, so there are at most
// min(len(Bids), range size) grants).
type RoundReply struct {
	Seq    uint64
	Grants []Grant
}

// BinarySize returns the number of bytes WriteTo emits: the frame envelope
// plus the fixed-size body.
func (h *Handshake) BinarySize() int { return headerSize + 2 + 4 + 4 + 8 + 8 + 4 + 8 + 8 }

// BinarySize returns the number of bytes WriteTo emits.
func (a *HandshakeAck) BinarySize() int { return headerSize + 2 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8 }

// BinarySize returns the number of bytes WriteTo emits.
func (f *RoundFrame) BinarySize() int { return headerSize + 8 + 4 + len(f.Bids)*bidSize }

// BinarySize returns the number of bytes WriteTo emits.
func (r *RoundReply) BinarySize() int { return headerSize + 8 + 4 + len(r.Grants)*grantSize }

// appendHeader writes the frame envelope for a body of n bytes (type tag
// included in n's accounting here: n is the payload length).
func appendHeader(b []byte, typ byte, payload int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(payload+1))
	return append(b, typ)
}

func (h *Handshake) append(b []byte) []byte {
	b = appendHeader(b, frameHandshake, h.BinarySize()-headerSize)
	b = binary.BigEndian.AppendUint16(b, h.Version)
	b = binary.BigEndian.AppendUint32(b, h.Q)
	b = binary.BigEndian.AppendUint32(b, h.N)
	b = binary.BigEndian.AppendUint64(b, h.Modules)
	b = binary.BigEndian.AppendUint64(b, h.AddrSpace)
	b = binary.BigEndian.AppendUint32(b, h.StoreID)
	b = binary.BigEndian.AppendUint64(b, h.RangeLo)
	return binary.BigEndian.AppendUint64(b, h.RangeHi)
}

func (h *Handshake) decode(p []byte) error {
	if len(p) != h.BinarySize()-headerSize {
		return fmt.Errorf("%w: handshake body %d bytes, want %d", ErrCorruptFrame, len(p), h.BinarySize()-headerSize)
	}
	h.Version = binary.BigEndian.Uint16(p[0:])
	h.Q = binary.BigEndian.Uint32(p[2:])
	h.N = binary.BigEndian.Uint32(p[6:])
	h.Modules = binary.BigEndian.Uint64(p[10:])
	h.AddrSpace = binary.BigEndian.Uint64(p[18:])
	h.StoreID = binary.BigEndian.Uint32(p[26:])
	h.RangeLo = binary.BigEndian.Uint64(p[30:])
	h.RangeHi = binary.BigEndian.Uint64(p[38:])
	return nil
}

func (a *HandshakeAck) append(b []byte) []byte {
	b = appendHeader(b, frameHandshakeAck, a.BinarySize()-headerSize)
	b = binary.BigEndian.AppendUint16(b, a.Version)
	b = append(b, a.Status)
	b = binary.BigEndian.AppendUint32(b, a.Q)
	b = binary.BigEndian.AppendUint32(b, a.N)
	b = binary.BigEndian.AppendUint64(b, a.Modules)
	b = binary.BigEndian.AppendUint64(b, a.AddrSpace)
	b = binary.BigEndian.AppendUint64(b, a.RangeLo)
	b = binary.BigEndian.AppendUint64(b, a.RangeHi)
	return binary.BigEndian.AppendUint64(b, a.Gen)
}

func (a *HandshakeAck) decode(p []byte) error {
	if len(p) != a.BinarySize()-headerSize {
		return fmt.Errorf("%w: handshake ack body %d bytes, want %d", ErrCorruptFrame, len(p), a.BinarySize()-headerSize)
	}
	a.Version = binary.BigEndian.Uint16(p[0:])
	a.Status = p[2]
	a.Q = binary.BigEndian.Uint32(p[3:])
	a.N = binary.BigEndian.Uint32(p[7:])
	a.Modules = binary.BigEndian.Uint64(p[11:])
	a.AddrSpace = binary.BigEndian.Uint64(p[19:])
	a.RangeLo = binary.BigEndian.Uint64(p[27:])
	a.RangeHi = binary.BigEndian.Uint64(p[35:])
	a.Gen = binary.BigEndian.Uint64(p[43:])
	return nil
}

func (f *RoundFrame) append(b []byte) []byte {
	b = appendHeader(b, frameRound, f.BinarySize()-headerSize)
	b = binary.BigEndian.AppendUint64(b, f.Seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(f.Bids)))
	for i := range f.Bids {
		bd := &f.Bids[i]
		b = binary.BigEndian.AppendUint32(b, bd.Proc)
		b = binary.BigEndian.AppendUint64(b, bd.Module)
		b = binary.BigEndian.AppendUint64(b, bd.Addr)
		b = append(b, bd.Op)
		b = binary.BigEndian.AppendUint64(b, bd.Value)
		b = binary.BigEndian.AppendUint64(b, bd.TS)
	}
	return b
}

func (f *RoundFrame) decode(p []byte) error {
	if len(p) < 12 {
		return fmt.Errorf("%w: round frame body %d bytes, want >= 12", ErrCorruptFrame, len(p))
	}
	f.Seq = binary.BigEndian.Uint64(p[0:])
	n := int(binary.BigEndian.Uint32(p[8:]))
	if len(p) != 12+n*bidSize {
		return fmt.Errorf("%w: round frame declares %d bids in %d bytes", ErrCorruptFrame, n, len(p))
	}
	if cap(f.Bids) < n {
		f.Bids = make([]Bid, n)
	}
	f.Bids = f.Bids[:n]
	off := 12
	for i := 0; i < n; i++ {
		bd := &f.Bids[i]
		bd.Proc = binary.BigEndian.Uint32(p[off:])
		bd.Module = binary.BigEndian.Uint64(p[off+4:])
		bd.Addr = binary.BigEndian.Uint64(p[off+12:])
		bd.Op = p[off+20]
		bd.Value = binary.BigEndian.Uint64(p[off+21:])
		bd.TS = binary.BigEndian.Uint64(p[off+29:])
		off += bidSize
	}
	return nil
}

func (r *RoundReply) append(b []byte) []byte {
	b = appendHeader(b, frameRoundReply, r.BinarySize()-headerSize)
	b = binary.BigEndian.AppendUint64(b, r.Seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Grants)))
	for i := range r.Grants {
		g := &r.Grants[i]
		b = binary.BigEndian.AppendUint32(b, g.Proc)
		b = binary.BigEndian.AppendUint64(b, g.Value)
		b = binary.BigEndian.AppendUint64(b, g.TS)
	}
	return b
}

func (r *RoundReply) decode(p []byte) error {
	if len(p) < 12 {
		return fmt.Errorf("%w: round reply body %d bytes, want >= 12", ErrCorruptFrame, len(p))
	}
	r.Seq = binary.BigEndian.Uint64(p[0:])
	n := int(binary.BigEndian.Uint32(p[8:]))
	if len(p) != 12+n*grantSize {
		return fmt.Errorf("%w: round reply declares %d grants in %d bytes", ErrCorruptFrame, n, len(p))
	}
	if cap(r.Grants) < n {
		r.Grants = make([]Grant, n)
	}
	r.Grants = r.Grants[:n]
	off := 12
	for i := 0; i < n; i++ {
		g := &r.Grants[i]
		g.Proc = binary.BigEndian.Uint32(p[off:])
		g.Value = binary.BigEndian.Uint64(p[off+4:])
		g.TS = binary.BigEndian.Uint64(p[off+12:])
		off += grantSize
	}
	return nil
}

// message is the common surface of all four wire types, used by the shared
// framing helpers.
type message interface {
	BinarySize() int
	append(b []byte) []byte
	decode(p []byte) error
	frameType() byte
	WriteTo(w io.Writer) (int64, error)
	ReadFrom(r io.Reader) (int64, error)
}

func (h *Handshake) frameType() byte    { return frameHandshake }
func (a *HandshakeAck) frameType() byte { return frameHandshakeAck }
func (f *RoundFrame) frameType() byte   { return frameRound }
func (r *RoundReply) frameType() byte   { return frameRoundReply }

// writeMsg frames and writes one message using (and growing) the caller's
// scratch buffer, so steady-state rounds reuse one allocation.
func writeMsg(w io.Writer, scratch []byte, m message) ([]byte, error) {
	b := m.append(scratch[:0])
	_, err := w.Write(b)
	return b, err
}

// readFrame reads one frame envelope plus body into (and growing) the
// caller's scratch buffer, returning the type tag and the payload slice
// (valid until the next readFrame on the same buffer).
func readFrame(r io.Reader, scratch []byte) (byte, []byte, []byte, error) {
	// The length prefix goes through scratch too: a local array would escape
	// through the io.Reader and cost an allocation per frame.
	if cap(scratch) < 4 {
		scratch = make([]byte, 64)
	}
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return 0, nil, scratch, err
	}
	size := int(binary.BigEndian.Uint32(scratch[:4]))
	if size < 1 {
		return 0, nil, scratch, fmt.Errorf("%w: zero-length frame", ErrCorruptFrame)
	}
	if size > maxFrameSize {
		return 0, nil, scratch, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	if cap(scratch) < size {
		scratch = make([]byte, size)
	}
	body := scratch[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, scratch, fmt.Errorf("%w: truncated frame: %v", ErrCorruptFrame, err)
	}
	return body[0], body[1:], scratch, nil
}

// readMsg reads one frame and decodes it as m, rejecting any other frame
// type.
func readMsg(r io.Reader, scratch []byte, m message) ([]byte, error) {
	typ, payload, scratch, err := readFrame(r, scratch)
	if err != nil {
		return scratch, err
	}
	if typ != m.frameType() {
		return scratch, fmt.Errorf("%w: frame type %d, want %d", ErrCorruptFrame, typ, m.frameType())
	}
	return scratch, m.decode(payload)
}

// WriteTo writes the framed handshake. Part of the lattigo-style
// serialization triple (BinarySize, WriteTo, ReadFrom).
func (h *Handshake) WriteTo(w io.Writer) (int64, error) { return writeTo(w, h) }

// ReadFrom reads one framed handshake.
func (h *Handshake) ReadFrom(r io.Reader) (int64, error) { return readFrom(r, h) }

// WriteTo writes the framed ack.
func (a *HandshakeAck) WriteTo(w io.Writer) (int64, error) { return writeTo(w, a) }

// ReadFrom reads one framed ack.
func (a *HandshakeAck) ReadFrom(r io.Reader) (int64, error) { return readFrom(r, a) }

// WriteTo writes the framed round request.
func (f *RoundFrame) WriteTo(w io.Writer) (int64, error) { return writeTo(w, f) }

// ReadFrom reads one framed round request.
func (f *RoundFrame) ReadFrom(r io.Reader) (int64, error) { return readFrom(r, f) }

// WriteTo writes the framed round reply.
func (r *RoundReply) WriteTo(w io.Writer) (int64, error) { return writeTo(w, r) }

// ReadFrom reads one framed round reply.
func (r *RoundReply) ReadFrom(rd io.Reader) (int64, error) { return readFrom(rd, r) }

func writeTo(w io.Writer, m message) (int64, error) {
	b := m.append(make([]byte, 0, m.BinarySize()))
	n, err := w.Write(b)
	return int64(n), err
}

func readFrom(r io.Reader, m message) (int64, error) {
	scratch, err := readMsg(r, nil, m)
	if err != nil {
		return 0, err
	}
	_ = scratch
	return int64(m.BinarySize()), nil
}
