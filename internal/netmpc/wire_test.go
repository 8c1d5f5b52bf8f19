package netmpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func testMessages() []message {
	return []message{
		&Handshake{Version: Version, Q: 2, N: 7, Modules: 1023, AddrSpace: 16368, StoreID: 7, RangeLo: 0, RangeHi: 255},
		&HandshakeAck{Version: Version, Status: AckOK, Q: 2, N: 7, Modules: 1023, AddrSpace: 16368, RangeLo: 0, RangeHi: 255},
		&RoundFrame{Seq: 42, Bids: []Bid{
			{Proc: 0, Module: 3, Addr: 55, Op: 1, Value: 0xdeadbeef, TS: 12},
			{Proc: 5, Module: 3, Addr: 56, Op: 0, Value: 0, TS: 12},
			{Proc: 9, Module: 200, Addr: 3201, Op: 1, Value: ^uint64(0), TS: 13},
		}},
		&RoundFrame{Seq: 1, Bids: nil},
		&RoundReply{Seq: 42, Grants: []Grant{{Proc: 0, Value: 77, TS: 12}, {Proc: 9, Value: 0, TS: 0}}},
		&RoundReply{Seq: 7, Grants: nil},
	}
}

// fresh returns an empty value of the same wire type as m.
func fresh(m message) message {
	switch m.(type) {
	case *Handshake:
		return &Handshake{}
	case *HandshakeAck:
		return &HandshakeAck{}
	case *RoundFrame:
		return &RoundFrame{}
	default:
		return &RoundReply{}
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, m := range testMessages() {
		var buf bytes.Buffer
		n, err := m.WriteTo(&buf)
		if err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if int(n) != m.BinarySize() || buf.Len() != m.BinarySize() {
			t.Fatalf("wrote %d bytes, BinarySize %d, buffered %d", n, m.BinarySize(), buf.Len())
		}
		got := fresh(m)
		if _, err := got.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		// Re-encoding the decoded message must reproduce the bytes.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round trip not byte-identical:\n  %x\n  %x", buf.Bytes(), buf2.Bytes())
		}
	}
}

func TestWireRejectsTruncation(t *testing.T) {
	for _, m := range testMessages() {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		// Every strict prefix must fail — with ErrCorruptFrame once the
		// header arrived, with a plain read error before that.
		for cut := 4; cut < len(full); cut++ {
			got := fresh(m)
			_, err := got.ReadFrom(bytes.NewReader(full[:cut]))
			if err == nil {
				t.Fatalf("%T: accepted %d of %d bytes", m, cut, len(full))
			}
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("%T truncated at %d: got %v, want ErrCorruptFrame", m, cut, err)
			}
		}
	}
}

func TestWireRejectsWrongType(t *testing.T) {
	var buf bytes.Buffer
	h := &Handshake{Version: Version}
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var reply RoundReply
	if _, err := reply.ReadFrom(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("got %v, want ErrCorruptFrame", err)
	}
}

func TestWireRejectsOversizedFrame(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrameSize+1)
	hdr = append(hdr, frameRound)
	var f RoundFrame
	if _, err := f.ReadFrom(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestWireRejectsBadCounts(t *testing.T) {
	// A round frame whose bid count disagrees with the payload length.
	var f RoundFrame
	f.Seq = 1
	f.Bids = []Bid{{Proc: 1, Module: 2}}
	raw := f.append(nil)
	// Inflate the declared count without adding bytes.
	binary.BigEndian.PutUint32(raw[headerSize+8:], 7)
	var got RoundFrame
	if _, err := got.ReadFrom(bytes.NewReader(raw)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("got %v, want ErrCorruptFrame", err)
	}
	hdrOnly := binary.BigEndian.AppendUint32(nil, 1)
	hdrOnly = append(hdrOnly, frameRound)
	if _, err := got.ReadFrom(bytes.NewReader(hdrOnly)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("empty body: got %v, want ErrCorruptFrame", err)
	}
}

// FuzzWireFrame feeds arbitrary bytes to every wire type's ReadFrom: the
// decoder must never panic, never allocate beyond the frame bound, and any
// input it accepts must re-encode to a byte-identical frame (decode/encode
// idempotence — the property the netcluster lane's trace fidelity rests on).
func FuzzWireFrame(f *testing.F) {
	for _, m := range testMessages() {
		f.Add(m.append(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, frameRound})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameSize+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []message{&Handshake{}, &HandshakeAck{}, &RoundFrame{}, &RoundReply{}} {
			if _, err := m.ReadFrom(bytes.NewReader(data)); err != nil {
				continue
			}
			out := m.append(nil)
			if len(out) > len(data) || !bytes.Equal(out, data[:len(out)]) {
				t.Fatalf("%T: accepted frame does not re-encode identically", m)
			}
		}
	})
}

// TestReadFromEOF pins the error taxonomy the server relies on: a clean
// close between frames is io.EOF (orderly), a close inside a frame is
// ErrCorruptFrame (torn write, logged).
func TestReadFromEOF(t *testing.T) {
	var f RoundFrame
	if _, err := f.ReadFrom(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	valid := (&RoundFrame{Seq: 3}).append(nil)
	if _, err := f.ReadFrom(bytes.NewReader(valid[:len(valid)-2])); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("torn frame: got %v, want ErrCorruptFrame", err)
	}
}
