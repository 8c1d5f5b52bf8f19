package netmpc

import (
	"fmt"
	"net"
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// Client is one machine-geometry view over a Transport: it implements
// protocol.Machine (synchronous bid rounds), protocol.FaultView and
// RepairView (it embeds the transport's fault set, so quorum selection
// routes around dead servers and a range re-admitted after a
// generation-mismatch reconnect stays barred from read quorums until the
// repair sweep certifies it), and protocol.RemoteStore (bids carry staged
// access payloads out and granted reads carry cell data back).
//
// Round semantics match the in-process engine exactly: each remote module
// grants the lowest processor bidding at it, and one round costs one unit. The
// network adds only failure modes, and those degrade into the fault set
// rather than surfacing as errors — Round never fails, it just grants less.
// While a server is up, Round is the only code that writes to or reads from
// its connection.
//
// A Client is not safe for concurrent Round calls, matching mpc.Machine;
// distinct Clients over one Transport are serialized by the transport.
type Client struct {
	*mpc.FaultSet
	t     *Transport
	rec   obs.Recorder
	round uint64

	// Per bid position, indexed like the round's list: staged is the payload
	// for the next round, from StageBid; granted the data from the last
	// round's grants; bidAt the server the bid went to this round, -1 once
	// its grant is believed — recv accepts a grant only for a position of
	// this round's list that bid at the replying server, and only once.
	// They grow with the longest round carried (StageBid, Round), not with
	// the machine's processor count.
	staged  []stagedOp
	granted []grantData
	bidAt   []int32
	frames  []RoundFrame // per-server bid assembly, reused
	sent    []net.Conn   // per-server connection this round's frame went out on, nil if none did
	sendAt  []time.Time  // per-server send timestamp, for RTT
	loads   map[int64]int
}

type stagedOp struct {
	addr      uint64
	op        uint8 // the wire op
	value, ts uint64
}

type grantData struct {
	value, ts uint64
}

func newClient(t *Transport, cfg mpc.Config) *Client {
	c := &Client{
		FaultSet: t.fs,
		t:        t,
		rec:      cfg.Recorder,
		frames:   make([]RoundFrame, len(t.servers)),
		sent:     make([]net.Conn, len(t.servers)),
		sendAt:   make([]time.Time, len(t.servers)),
		loads:    make(map[int64]int),
	}
	if c.rec == nil {
		c.rec = obs.Nop
	}
	return c
}

// StageBid implements protocol.RemoteStore.
func (c *Client) StageBid(pos int32, addr uint64, op protocol.Op, value, ts uint64) {
	c.staged = growTo(c.staged, int(pos)+1)
	c.staged[pos] = stagedOp{addr: addr, op: wireOp(op), value: value, ts: ts}
}

// wireOp returns the wire op a bid staged with protocol op op travels as.
func wireOp(op protocol.Op) uint8 {
	switch op {
	case protocol.Read:
		return opRead
	case protocol.Write:
		return opWrite
	case protocol.RepairWrite:
		return opRepair
	case protocol.ReadWrite:
		return opReadWrite
	}
	panic(fmt.Sprintf("netmpc: protocol op %d has no wire op", op))
}

// GrantData implements protocol.RemoteStore.
func (c *Client) GrantData(pos int32) (value, ts uint64) {
	g := c.granted[pos]
	return g.value, g.ts
}

// growTo returns s lengthened to at least n elements, keeping its contents,
// with append's amortized growth.
func growTo[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:cap(s)]
}

// Cost implements protocol.Machine: rounds executed so far.
func (c *Client) Cost() uint64 { return c.round }

// Round executes one synchronous MPC round over the network: assemble one
// frame per touched server, fan all frames out (every send completes before
// the first reply is read, so the servers work in parallel), read each sent
// server's reply under one RoundTimeout deadline, and mark down the servers
// whose reply is late, torn, not the one asked for, or grants a bid that did
// not go to that server in this round (or grants one twice). Bids
// directed at down servers are dropped exactly like bids at failed modules
// (mpc.Failing), and the books balance: surviving requests + dropped ==
// issued.
//
// A bid goes on the wire under its position in the round's list (Bid.Proc).
// The list is in ascending processor order, so each frame's positions
// ascend and a server granting each module to its first claim grants the
// lowest processor, as mpc.Machine does.
func (c *Client) Round(bids []int64, grant []bool) int {
	t := c.t
	t.roundMu.Lock()
	defer t.roundMu.Unlock()

	for i := range grant {
		grant[i] = false
	}
	for i := range c.frames {
		c.frames[i].Bids = c.frames[i].Bids[:0]
		c.sent[i] = nil
	}

	c.staged, c.granted = growTo(c.staged, len(bids)), growTo(c.granted, len(bids))
	c.bidAt = growTo(c.bidAt, len(bids))
	nServers := len(t.servers)
	bidAt := c.bidAt[:len(bids)]
	issued := 0
	for i, b := range bids {
		if b == mpc.Idle {
			bidAt[i] = -1
			continue
		}
		issued++
		m := mpc.BidModule(b)
		si := ServerFor(m, t.cfg.Modules, nServers)
		bidAt[i] = int32(si)
		st := &c.staged[i]
		c.frames[si].Bids = append(c.frames[si].Bids, Bid{
			Proc:   uint32(i),
			Module: uint64(m),
			Addr:   st.addr,
			Op:     st.op,
			Value:  st.value,
			TS:     st.ts,
		})
	}

	// Fan-out: every frame goes on the wire before any reply is read.
	for i, s := range t.servers {
		f := &c.frames[i]
		if len(f.Bids) == 0 || !s.up.Load() {
			continue
		}
		s.seq++
		f.Seq = s.seq
		c.sendAt[i] = time.Now()
		c.sent[i] = s.send(f)
	}

	// Gather, one shared deadline across servers.
	deadline := time.Now().Add(t.cfg.RoundTimeout)
	served := 0
	for i, s := range t.servers {
		if c.sent[i] == nil {
			continue
		}
		reply := s.recv(c.sent[i], deadline, bidAt)
		if reply == nil {
			c.sent[i] = nil
			continue
		}
		// Microseconds: 16 power-of-two buckets of nanoseconds would clamp
		// every round past 32 µs into the last one. The floor of 1 keeps a
		// sub-microsecond round counted (Observe drops zeros).
		s.rtt.Observe(max(time.Since(c.sendAt[i]).Microseconds(), 1))
		for _, g := range reply.Grants {
			grant[g.Proc] = true
			c.granted[g.Proc] = grantData{value: g.Value, ts: g.TS}
			served++
		}
	}

	if c.rec.Enabled() {
		c.record(issued, served)
	}
	c.round++
	return served
}

// record assembles the round's obs event: per-module contention over the
// bids that reached live servers, dropped count for the rest. Requests +
// Dropped equals the issued bid count, so smembench's trace balance check
// holds over the network exactly as it does for mpc.Failing.
func (c *Client) record(issued, served int) {
	clear(c.loads)
	surviving := 0
	maxLoad := 0
	var hist obs.LoadHist
	for i := range c.frames {
		if c.sent[i] == nil {
			continue
		}
		for j := range c.frames[i].Bids {
			m := int64(c.frames[i].Bids[j].Module)
			c.loads[m]++
			surviving++
			if c.loads[m] > maxLoad {
				maxLoad = c.loads[m]
			}
		}
	}
	for _, n := range c.loads {
		hist.Observe(n)
	}
	c.rec.RecordRound(obs.RoundEvent{
		Round:      c.round,
		Requests:   surviving,
		Granted:    served,
		MaxLoad:    maxLoad,
		Contention: hist,
		Dropped:    issued - surviving,
	})
}
