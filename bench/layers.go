package main

import (
	"fmt"
	"time"

	"detshmem/internal/frontend"
	"detshmem/internal/netmpc"
	"detshmem/internal/shard"
)

// tracedSlices is the traced run: a reference slice with the hooks
// installed but off, which also yields the process metrics; the same op
// count with the hooks on; a second reference slice, so that a drift of the
// box's speed over the three cancels out of the overhead; and the replay of
// the last slice's ops.
func (r *runner) tracedSlices(windows int, ms metricSet) error {
	p0 := readProcess()
	ref, t, err := r.slice(windows)
	if err != nil {
		return fmt.Errorf("reference slice: %w", err)
	}
	p1 := readProcess()
	r.account(ref, &t, windows)
	ops := float64(ref.Ops)
	ms["process.allocs_per_op"] = float64(p1.mallocs-p0.mallocs) / ops
	ms["process.alloc_bytes_per_op"] = float64(p1.allocBytes-p0.allocBytes) / ops
	ms["process.gc_pause_ms"] = float64(p1.gcPauseNs-p0.gcPauseNs) / 1e6
	ms["process.cpu_s_per_mop"] = (p1.cpuS - p0.cpuS) / ops * 1e6

	before := r.counters()
	for _, rs := range r.tc.shards {
		rs.parent = rs.spans.newID()
	}
	r.tc.on.Store(true)
	start := time.Now()
	traced, t, err := r.slice(windows)
	end := time.Now()
	r.tc.on.Store(false)
	if err != nil {
		return fmt.Errorf("traced slice: %w", err)
	}
	after := r.counters()
	for _, rs := range r.tc.shards {
		rs.spans.put(span{Name: "flusher", ID: rs.parent, Shard: rs.shard, Start: r.tc.since(start), End: r.tc.since(end)})
	}
	r.account(traced, &t, windows)
	r.inSituMetrics(ms, traced, &t, before, after)

	ref2, t2, err := r.slice(windows)
	if err != nil {
		return fmt.Errorf("second reference slice: %w", err)
	}
	r.account(ref2, &t2, windows)
	ms["trace.overhead_frac"] = 1 - traced.opsPerS()/((ref.opsPerS()+ref2.opsPerS())/2)
	ms["client.win_p99_us"] = (ref.winP99Us() + ref2.winP99Us()) / 2

	rp, err := replay(r.st, r.bufs, r.sp.window, r.replayWindows(windows))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rp.export(ms)
	if r.opt.spans != "" {
		return r.tc.writeSpans(r.opt.spans, rp.rings...)
	}
	return nil
}

// replayWindows is how many windows per client of the last slice the replay
// feeds through the layers: a quarter of the slice is enough for per-op
// costs that are means over tens of thousands of ops.
func (r *runner) replayWindows(windows int) int {
	if r.opt.quick {
		return windows
	}
	return (windows + 3) / 4
}

// counters are the cumulative counts the layers keep themselves, read on
// both sides of the traced slice.
type counters struct {
	shard        shard.Stats
	net          netTotals
	serverFrames uint64
	droppedBids  uint64
}

// netTotals sums netmpc.Transport.Stats over the servers.
type netTotals struct {
	frames, bids, reconnects, timeouts, maxInFlight int64
}

func (r *runner) counters() counters {
	c := counters{shard: r.st.svc.Stats(), serverFrames: r.st.serverFrames(), droppedBids: r.tc.droppedBids()}
	if r.st.tr != nil {
		for _, s := range r.st.tr.Stats() {
			c.net.frames += s.Frames
			c.net.bids += s.Bids
			c.net.reconnects += s.Reconnects
			c.net.timeouts += s.Timeouts
			c.net.maxInFlight = max(c.net.maxInFlight, s.MaxInFlight)
		}
	}
	return c
}

// statsDelta is a − b over the counters the suite reads.
func statsDelta(a, b frontend.Stats) frontend.Stats {
	return frontend.Stats{
		Batches:         a.Batches - b.Batches,
		OpsIn:           a.OpsIn - b.OpsIn,
		RequestsOut:     a.RequestsOut - b.RequestsOut,
		SizeFlushes:     a.SizeFlushes - b.SizeFlushes,
		IdleFlushes:     a.IdleFlushes - b.IdleFlushes,
		ConflictFlushes: a.ConflictFlushes - b.ConflictFlushes,
	}
}

// Sizes of the wire types: an empty frame and reply, and what one bid and
// one grant add.
var (
	frameBytes = (&netmpc.RoundFrame{}).BinarySize()
	replyBytes = (&netmpc.RoundReply{}).BinarySize()
	bidBytes   = (&netmpc.RoundFrame{Bids: make([]netmpc.Bid, 1)}).BinarySize() - frameBytes
	grantBytes = (&netmpc.RoundReply{Grants: make([]netmpc.Grant, 1)}).BinarySize() - replyBytes
)

// inSituMetrics derives the per-layer metrics of the traced slice from the
// client spans (t), the layers' own counters on both sides of the slice, and
// what the tracer's hooks recorded while they were on.
func (r *runner) inSituMetrics(ms metricSet, s sliceStats, t *tally, before, after counters) {
	ops := float64(s.Ops)

	ms["shard.submit_ns_per_op"] = float64(t.submit) / ops
	ms["shard.wait_ns_per_win"] = ratio(float64(t.wait), float64(len(t.lat)))
	d := statsDelta(after.shard.Total, before.shard.Total)
	batches := float64(d.Batches)
	ms["shard.batches_per_kop"] = batches / ops * 1e3
	ms["shard.idle_flush_frac"] = ratio(float64(d.IdleFlushes), batches)
	ms["shard.size_flush_frac"] = ratio(float64(d.SizeFlushes), batches)
	ms["shard.conflict_flush_frac"] = ratio(float64(d.ConflictFlushes), batches)
	perShard := shard.Stats{PerShard: make([]frontend.Stats, len(after.shard.PerShard))}
	for i := range perShard.PerShard {
		perShard.PerShard[i] = statsDelta(after.shard.PerShard[i], before.shard.PerShard[i])
	}
	ms["shard.imbalance"] = perShard.Imbalance()
	ms["frontend.combine_frac"] = d.CombiningRate()

	bt := r.tc.totals
	ms["protocol.reqs_per_batch"] = ratio(float64(bt.requests), float64(bt.batches))
	ms["protocol.rounds_per_batch"] = ratio(float64(bt.rounds), float64(bt.batches))
	ms["protocol.phi_mean"] = ratio(float64(bt.phiSum), float64(bt.batches))
	ms["protocol.phi_max"] = float64(bt.phiMax)
	ms["protocol.issued_bids_per_req"] = ratio(float64(bt.issued), float64(bt.requests))
	ms["protocol.grant_ratio"] = ratio(float64(bt.granted), float64(bt.issued))
	ms["protocol.retried_bids_per_kop"] = float64(bt.retried) / ops * 1e3
	ms["protocol.stranded"] = float64(bt.stranded)
	ms["protocol.repair_rounds"] = float64(bt.repairRounds)
	ms["protocol.repaired_copies"] = float64(bt.repaired)
	ms["protocol.repair_drain_s"] = s.DrainS

	var roundNs []int64
	var roundSum, bids, grants float64
	for _, rs := range r.tc.shards {
		roundNs = append(roundNs, rs.ns...)
		roundSum += float64(rs.sum)
		bids += float64(rs.bids)
		grants += float64(rs.grants)
	}
	rounds := float64(len(roundNs))
	ms["mpc.round_ns_p50"] = percentile(roundNs, 50)
	ms["mpc.round_ns_mean"] = ratio(roundSum, rounds)
	ms["mpc.bids_per_round"] = ratio(bids, rounds)
	ms["mpc.round_busy_frac"] = roundSum / (float64(r.sp.shards) * float64(t.wall.Nanoseconds()))
	ms["mpc.dropped_bids_per_kop"] = float64(after.droppedBids-before.droppedBids) / ops * 1e3

	// The machine the wrapper times is the network client on tcp-loopback,
	// so the same samples are the wire round-trips; elsewhere no frame moves.
	frames := float64(after.net.frames - before.net.frames)
	wireBids := float64(after.net.bids - before.net.bids)
	wireBytes := 0.0
	ms["netmpc.round_us_p50"], ms["netmpc.round_us_p99"] = 0, 0
	if r.sp.tcp {
		ms["netmpc.round_us_p50"] = percentile(roundNs, 50) / 1e3
		ms["netmpc.round_us_p99"] = percentile(roundNs, 99) / 1e3
		// Every frame is answered by one reply that carries the grants.
		wireBytes = frames*float64(frameBytes+replyBytes) + wireBids*float64(bidBytes) + grants*float64(grantBytes)
	}
	ms["netmpc.frames_per_op"] = frames / ops
	ms["netmpc.bids_per_frame"] = ratio(wireBids, frames)
	ms["netmpc.max_in_flight"] = float64(after.net.maxInFlight)
	ms["netmpc.timeouts"] = float64(after.net.timeouts - before.net.timeouts)
	ms["netmpc.reconnects"] = float64(after.net.reconnects - before.net.reconnects)
	ms["netmpc.wire_bytes_per_op"] = wireBytes / ops
	ms["netmpc.server_frames"] = float64(after.serverFrames - before.serverFrames)
}
