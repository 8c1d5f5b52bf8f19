package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around calls into the layer's public functions.
// Times are nanoseconds since the tracer's epoch. A layer's self time is
// its span minus the part its children cover.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Seq    uint64 `json:"seq,omitempty"` // window spans: the client's window index
	Shard  int    `json:"shard"`
	Bids   int    `json:"bids,omitempty"`   // round spans
	Grants int    `json:"grants,omitempty"` // round spans
}

// ringSpans bounds the spans one ring keeps; older spans are overwritten.
// The per-layer metrics are summed as spans are recorded, so they cover the
// whole traced slice whatever the ring keeps.
const ringSpans = 1 << 14

// ring keeps the most recent spans of one goroutine (a client, a shard's
// flusher, or the replay). It is not safe for concurrent use.
type ring struct {
	prefix uint64 // high bits of every span id from this ring
	count  uint64 // ids handed out
	puts   uint64 // spans recorded
	buf    []span
}

func newRing(index int) *ring {
	return &ring{prefix: uint64(index+1) << 48, buf: make([]span, 0, ringSpans)}
}

// newID reserves a span id, for a span whose children are recorded before
// it ends.
func (r *ring) newID() uint64 {
	r.count++
	return r.prefix | r.count
}

// put records a finished span.
func (r *ring) put(s span) {
	if len(r.buf) < ringSpans {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.puts%ringSpans] = s
	}
	r.puts++
}

// add records s over [start, end) under a fresh id and returns the id.
func (r *ring) add(s span, start, end int64) uint64 {
	s.ID, s.Start, s.End = r.newID(), start, end
	r.put(s)
	return s.ID
}

// roundStats accumulates the Machine.Round calls of one shard's flusher.
type roundStats struct {
	spans    *ring
	shard    int
	parent   uint64  // id of the span the rounds hang off
	ns       []int64 // every round's duration
	sum      int64
	bids     int64
	grants   int64
	machines []protocol.Machine // inner machines built for this shard
}

// maxRoundSamples bounds the per-round durations kept for percentiles.
const maxRoundSamples = 1 << 22

func (rs *roundStats) observe(start, end int64, bids, grants int) {
	d := end - start
	rs.sum += d
	rs.bids += int64(bids)
	rs.grants += int64(grants)
	if len(rs.ns) < maxRoundSamples {
		rs.ns = append(rs.ns, d)
	}
	rs.spans.add(span{Name: "round", Parent: rs.parent, Shard: rs.shard, Bids: bids, Grants: grants}, start, end)
}

// batchTotals sums the protocol's per-batch and per-repair-step events.
type batchTotals struct {
	batches, requests, rounds int64
	phiSum                    int64
	phiMax                    int
	issued, granted, retried  int64
	stranded                  int64
	repairRounds, repaired    int64
}

// tracer holds everything a traced run records. It is installed when the
// stack is built and does nothing until switched on, so one stack serves
// the untraced reference slice and the traced slice of a traced run.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	clients []*ring
	shards  []*roundStats

	mu     sync.Mutex // guards totals: every shard's flusher reports here
	totals batchTotals
}

// newTracer numbers its rings from firstRing, so the span ids of two
// tracers in one dump (the run's and the replay's) stay apart.
func newTracer(firstRing, clients, shards int) *tracer {
	tc := &tracer{epoch: time.Now()}
	for c := 0; c < clients; c++ {
		tc.clients = append(tc.clients, newRing(firstRing+c))
	}
	for s := 0; s < shards; s++ {
		tc.shards = append(tc.shards, &roundStats{spans: newRing(firstRing + clients + s), shard: s})
	}
	return tc
}

func (tc *tracer) since(t time.Time) int64 { return t.Sub(tc.epoch).Nanoseconds() }

// ObserveBatch implements obs.BatchObserver.
func (tc *tracer) ObserveBatch(ev obs.BatchEvent) {
	if !tc.on.Load() {
		return
	}
	tc.mu.Lock()
	t := &tc.totals
	t.batches++
	t.requests += int64(ev.Requests)
	t.rounds += int64(ev.Rounds)
	t.phiSum += int64(ev.MaxPhi)
	if ev.MaxPhi > t.phiMax {
		t.phiMax = ev.MaxPhi
	}
	t.issued += int64(ev.IssuedBids)
	t.granted += int64(ev.GrantedBids)
	t.retried += int64(ev.RetriedBids)
	t.stranded += int64(ev.Stranded)
	tc.mu.Unlock()
}

// ObserveRepair implements obs.RepairObserver.
func (tc *tracer) ObserveRepair(ev obs.RepairEvent) {
	if !tc.on.Load() {
		return
	}
	tc.mu.Lock()
	tc.totals.repairRounds += int64(ev.Rounds)
	tc.totals.repaired += int64(ev.Copies)
	tc.mu.Unlock()
}

// droppedBids sums the bids the shards' failing machines dropped at failed
// modules so far.
func (tc *tracer) droppedBids() uint64 {
	var n uint64
	for _, rs := range tc.shards {
		for _, m := range rs.machines {
			if f, ok := m.(interface{ DroppedBids() uint64 }); ok {
				n += f.DroppedBids()
			}
		}
	}
	return n
}

// writeSpans dumps every ring (plus extra, the replay's) as JSON.
func (tc *tracer) writeSpans(path string, extra ...*ring) error {
	var all []span
	for _, r := range tc.clients {
		all = append(all, r.buf...)
	}
	for _, rs := range tc.shards {
		all = append(all, rs.spans.buf...)
	}
	for _, r := range extra {
		all = append(all, r.buf...)
	}
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// timedTransport builds one shard's machines through inner and wraps each
// so that Machine.Round is timed.
type timedTransport struct {
	shard int
	inner func(mpc.Config) (protocol.Machine, error)
	tc    *tracer
}

func (t *timedTransport) Name() string { return "timed" }

func (t *timedTransport) NewMachine(cfg mpc.Config) (protocol.Machine, error) {
	m, err := t.inner(cfg)
	if err != nil {
		return nil, err
	}
	rs := t.tc.shards[t.shard]
	rs.machines = append(rs.machines, m)
	return wrapMachine(m, t.tc, rs)
}

// timedMachine times every Round of the machine it wraps. The protocol
// discovers a machine's fault, repair and remote-store views by type
// assertion, so the wrapper must expose exactly the views the wrapped
// machine has — hence the three wrapper types below and wrapMachine, which
// refuses a machine shape it cannot mirror rather than silently switching a
// path off.
type timedMachine struct {
	inner protocol.Machine
	tc    *tracer
	rs    *roundStats
}

func (m *timedMachine) Round(reqs []int64, grant []bool) int {
	if !m.tc.on.Load() {
		return m.inner.Round(reqs, grant)
	}
	bids := 0
	for _, r := range reqs {
		if r != mpc.Idle {
			bids++
		}
	}
	t0 := time.Now()
	grants := m.inner.Round(reqs, grant)
	t1 := time.Now()
	m.rs.observe(m.tc.since(t0), m.tc.since(t1), bids, grants)
	return grants
}

func (m *timedMachine) Cost() uint64 { return m.inner.Cost() }

// Close forwards to the wrapped machine, which may own a worker pool.
func (m *timedMachine) Close() {
	if c, ok := m.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// timedFaulty wraps a machine with a fault and repair lifecycle
// (mpc.Failing).
type timedFaulty struct {
	timedMachine
	protocol.FaultView
	protocol.RepairView
}

// timedRemote wraps a machine whose cells live across a transport
// (netmpc.Client).
type timedRemote struct {
	timedFaulty
	protocol.RemoteStore
}

func wrapMachine(m protocol.Machine, tc *tracer, rs *roundStats) (protocol.Machine, error) {
	base := timedMachine{inner: m, tc: tc, rs: rs}
	fv, hasFault := m.(protocol.FaultView)
	rv, hasRepair := m.(protocol.RepairView)
	store, hasRemote := m.(protocol.RemoteStore)
	switch {
	case hasFault && hasRepair && hasRemote:
		return &timedRemote{timedFaulty{base, fv, rv}, store}, nil
	case hasFault && hasRepair && !hasRemote:
		return &timedFaulty{base, fv, rv}, nil
	case !hasFault && !hasRepair && !hasRemote:
		return &base, nil
	}
	return nil, fmt.Errorf("bench: no timing wrapper mirrors %T (fault view %v, repair view %v, remote store %v)",
		m, hasFault, hasRepair, hasRemote)
}
