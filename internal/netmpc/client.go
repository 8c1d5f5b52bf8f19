package netmpc

import (
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// Client is one machine-geometry view over a Transport: it implements
// protocol.Machine (synchronous bid rounds), protocol.FaultView (delegating
// to the transport's fault set, so quorum selection routes around dead
// servers), and protocol.RemoteStore (bids carry staged access payloads out
// and granted reads carry cell data back).
//
// Round semantics match the in-process engine exactly: every bidding
// processor's claim is computed locally with mpc.Claim, each remote module
// grants the minimum claim it received, and one round costs one unit. The
// network adds only failure modes, and those degrade into the fault set
// rather than surfacing as errors — Round never fails, it just grants less.
//
// A Client is not safe for concurrent Round calls, matching mpc.Machine;
// distinct Clients over one Transport are serialized by the transport.
type Client struct {
	t     *Transport
	procs int
	arb   mpc.Arbiter
	seed  uint64
	rec   obs.Recorder
	round uint64

	staged  []stagedOp   // per-proc payload for the next round, from StageBid
	granted []grantData  // per-proc data from the last round's grants
	frames  []RoundFrame // per-server bid assembly, reused
	sent    []int8       // per-server send state this round (0 none, 1 sent, 2 down)
	sendAt  []time.Time  // per-server send timestamp, for RTT
	timer   *time.Timer  // reused gather timer
	loads   map[int64]int
}

type stagedOp struct {
	addr      uint64
	op        protocol.Op
	value, ts uint64
}

type grantData struct {
	value, ts uint64
}

func newClient(t *Transport, cfg mpc.Config) *Client {
	c := &Client{
		t:       t,
		procs:   cfg.Procs,
		arb:     cfg.Arb,
		seed:    cfg.Seed,
		rec:     cfg.Recorder,
		staged:  make([]stagedOp, cfg.Procs),
		granted: make([]grantData, cfg.Procs),
		frames:  make([]RoundFrame, len(t.servers)),
		sent:    make([]int8, len(t.servers)),
		sendAt:  make([]time.Time, len(t.servers)),
		loads:   make(map[int64]int),
	}
	if c.rec == nil {
		c.rec = obs.Nop
	}
	c.timer = time.NewTimer(time.Hour)
	if !c.timer.Stop() {
		<-c.timer.C
	}
	return c
}

// StageBid implements protocol.RemoteStore.
func (c *Client) StageBid(proc int32, addr uint64, op protocol.Op, value, ts uint64) {
	c.staged[proc] = stagedOp{addr: addr, op: op, value: value, ts: ts}
}

// GrantData implements protocol.RemoteStore.
func (c *Client) GrantData(proc int32) (value, ts uint64) {
	g := c.granted[proc]
	return g.value, g.ts
}

// ModuleFailed implements protocol.FaultView.
func (c *Client) ModuleFailed(m int64) bool { return c.t.fs.Failed(uint64(m)) }

// FaultEpoch implements protocol.FaultView.
func (c *Client) FaultEpoch() uint64 { return c.t.fs.Epoch() }

// FaultCount implements protocol.FaultView.
func (c *Client) FaultCount() int { return c.t.fs.Count() }

// ModuleRepairing implements protocol.RepairView: a module range re-admitted
// after a generation-mismatch reconnect (wiped store) stays barred from read
// quorums until the repair sweep certifies it.
func (c *Client) ModuleRepairing(m int64) bool { return c.t.fs.Repairing(uint64(m)) }

// RepairGeneration implements protocol.RepairView.
func (c *Client) RepairGeneration(m uint64) uint64 { return c.t.fs.RepairGen(m) }

// RepairCount implements protocol.RepairView.
func (c *Client) RepairCount() int { return c.t.fs.RepairCount() }

// AppendRepairing implements protocol.RepairView.
func (c *Client) AppendRepairing(buf []uint64) []uint64 { return c.t.fs.AppendRepairing(buf) }

// CertifyRepairs implements protocol.RepairView.
func (c *Client) CertifyRepairs(mods, gens []uint64) int { return c.t.fs.CertifyBatch(mods, gens) }

// Cost implements protocol.Machine: rounds executed so far.
func (c *Client) Cost() uint64 { return c.round }

// Round executes one synchronous MPC round over the network: assemble one
// frame per touched server, fan all frames out (every send completes before
// the first reply is awaited, so the servers work in parallel), gather
// replies until RoundTimeout, and mark unresponsive servers down. Bids
// directed at down servers are dropped exactly like bids at failed modules
// (mpc.Failing), and the books balance: surviving requests + dropped ==
// issued.
func (c *Client) Round(reqs []int64, grant []bool) int {
	t := c.t
	t.roundMu.Lock()
	defer t.roundMu.Unlock()

	for i := range grant {
		grant[i] = false
	}
	for i := range c.frames {
		c.frames[i].Bids = c.frames[i].Bids[:0]
		c.sent[i] = 0
	}

	nServers := len(t.servers)
	issued := 0
	for p, m := range reqs {
		if m == mpc.Idle || m < 0 {
			continue
		}
		issued++
		si := ServerFor(m, t.cfg.Modules, nServers)
		st := &c.staged[p]
		c.frames[si].Bids = append(c.frames[si].Bids, Bid{
			Proc:   uint32(p),
			Module: uint64(m),
			Claim:  mpc.Claim(c.arb, c.procs, c.seed, c.round, p),
			Addr:   st.addr,
			Op:     uint8(st.op),
			Value:  st.value,
			TS:     st.ts,
		})
	}

	// Fan-out: every frame goes on the wire before any reply is read.
	for i, s := range t.servers {
		f := &c.frames[i]
		if len(f.Bids) == 0 {
			continue
		}
		if !s.up.Load() {
			c.sent[i] = 2
			continue
		}
		s.seq++
		f.Seq = s.seq
		f.Round = c.round
		c.sendAt[i] = time.Now()
		if s.send(f) {
			c.sent[i] = 1
		} else {
			c.sent[i] = 2
		}
	}

	// Gather, one shared deadline across servers.
	deadline := time.Now().Add(t.cfg.RoundTimeout)
	served := 0
	for i, s := range t.servers {
		if c.sent[i] != 1 {
			continue
		}
		reply, ok := c.await(s, s.seq, deadline)
		if !ok {
			s.timeouts.Inc()
			s.writeMu.Lock()
			conn := s.conn
			s.writeMu.Unlock()
			if conn != nil {
				s.markDown(conn, ErrRoundTimeout)
			}
			c.sent[i] = 2
			continue
		}
		s.inFlight.Add(-1)
		s.rtt.Observe(time.Since(c.sendAt[i]).Nanoseconds())
		for _, g := range reply.Grants {
			if int(g.Proc) < len(grant) {
				grant[g.Proc] = true
				c.granted[g.Proc] = grantData{value: g.Value, ts: g.TS}
				served++
			}
		}
		s.recycle(reply)
	}

	if c.rec.Enabled() {
		c.record(issued, served)
	}
	c.round++
	return served
}

// await pulls replies off the server's channel until the expected sequence
// number arrives (stale replies from abandoned rounds are discarded) or the
// deadline passes. The timer is the client's reused one; it is re-armed —
// stopped, drained, reset — on every wait.
func (c *Client) await(s *srv, want uint64, deadline time.Time) (*RoundReply, bool) {
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, false
		}
		if !c.timer.Stop() {
			select {
			case <-c.timer.C:
			default:
			}
		}
		c.timer.Reset(remaining)
		select {
		case r := <-s.replies:
			if r.Seq == want {
				return r, true
			}
			ahead := r.Seq > want
			s.recycle(r)
			if ahead {
				return nil, false // stream is ahead of us; our reply is lost
			}
			// Stale reply from an abandoned round: discarded, keep waiting.
		case <-c.timer.C:
			return nil, false
		}
	}
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
		if c.sent[i] != 1 {
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
