package protocol

import (
	"math/bits"

	"detshmem/internal/mpc"
)

// FaultView is the read side of a dynamic fault model: an interconnect that
// can lose modules at runtime exposes which modules are currently failed so
// the access protocol can re-select quorums over the survivors instead of
// bidding blindly at crashed banks. Its method is *mpc.FaultSet's own, so a
// machine embedding its set (mpc.Failing, netmpc.Client) implements it with
// no code. NewGenericSystem type-asserts the machine against this interface;
// healthy interconnects don't implement it and pay nothing.
//
// The protocol reads the set once per pass — a phase's selection, a
// refilter, a retry wave, a repair wave — and classifies every copy of the
// pass against that one snapshot. Snapshot must be safe to call
// concurrently with mutation (mpc.FaultSet publishes epoch-stamped atomic
// snapshots).
type FaultView interface {
	// Snapshot returns the fault set's current state. Its epoch increases
	// on every effective fail/recover, letting the round loop detect
	// mid-phase changes with one load per iteration.
	Snapshot() mpc.FaultSnapshot
}

// faultAttempts is the post-phase retry budget: one pass to mop up requests
// disturbed mid-phase, one more in case a recovery lands between them.
const faultAttempts = 2

// barred reports whether module m may not count toward a quorum for op.
// Failed modules serve nothing. Repairing modules (recovered but not yet
// rebuilt — see RepairView) serve writes — the written copy receives fresh
// data, so counting it is sound and lets a degraded write quorum recover
// immediately — but are barred from read quorums until certification: their
// store may be stale or reborn empty, and a read quorum containing one
// could return a value older than the last committed write. Correctness is
// preserved because a read quorum drawn from the non-repairing copies is
// still a read quorum of the full copy set, so it intersects every write
// quorum, and the intersecting copy is trustworthy. Only a user Read or
// ReadWrite is barred so: the repair sweep's reads and writes are barred by
// failure alone.
func (sys *System) barred(st mpc.FaultSnapshot, op Op, m int64) bool {
	return st.Failed(uint64(m)) || (op == Read || op == ReadWrite) && sys.rv != nil && st.Repairing(uint64(m))
}

// liveCopies returns the mask of the row's copies op may bid for under st.
func (sys *System) liveCopies(st mpc.FaultSnapshot, op Op, row []packedCopy) uint64 {
	var live uint64
	for c, cp := range row {
		if !sys.barred(st, op, cp.module()) {
			live |= 1 << c
		}
	}
	return live
}

// openRequest opens request r's phase under the fault view: it clears r's
// copy masks and returns the copies r bids for: those its operation may use
// under st (quorum re-selection over survivors). Member j of r's cluster
// bids for copy j, so a barred copy's member sits the phase out. A ReadWrite
// short of its quorum is demoted to a Write when that can reach it, and its
// copies are re-selected for the Write; a request that still cannot is
// queued for the post-phase retry pass with nothing in flight, and
// openRequest reports false.
func (sys *System) openRequest(b *batch, st mpc.FaultSnapshot, r int) (uint64, bool) {
	sys.stalled[r] = false
	sys.touchedC[r] = 0
	row := sys.row(r)
	live := sys.liveCopies(st, b.reqs[r].Op, row)
	if int32(bits.OnesCount64(live)) < sys.remaining[r] {
		if b.reqs[r].Op != ReadWrite || !sys.demote(b, st, r) {
			sys.usedMask[r] = 0
			sys.liveBids[r] = 0
			sys.queueRetry(int32(r))
			return 0, false
		}
		live = sys.liveCopies(st, Write, row)
	}
	sys.usedMask[r] = live
	return live, true
}

// demote serves ReadWrite request r as a plain Write when its read cannot
// reach the quorum: it rewrites the request's Op, keeps the copies already
// granted counted toward the write quorum, and records r for refuseReads.
// It refuses — and r stays a ReadWrite, to be retried whole — when the
// untouched live copies cannot make up the write quorum either.
func (sys *System) demote(b *batch, st mpc.FaultSnapshot, r int) bool {
	need := sys.remaining[r] - (sys.quorum(ReadWrite) - sys.writeQ)
	live := int32(0)
	for c, cp := range sys.row(r) {
		if sys.touchedC[r]&(1<<uint(c)) == 0 && !st.Failed(uint64(cp.module())) {
			live++
		}
	}
	if live < need {
		return false
	}
	b.reqs[r].Op = Write
	sys.remaining[r] = need
	sys.demoted = append(sys.demoted, int32(r))
	return true
}

// refuseReads closes a batch's demoted requests: each one whose write
// committed is reported in Unfinished and ReadRefused — and in Stranded when
// its variable has fewer live copies than a read quorum. A demoted request
// whose write did not commit was reported by the retry pass like any Write.
func (sys *System) refuseReads(b *batch) {
	if len(sys.demoted) == 0 {
		return
	}
	met, st := &b.res.Metrics, b.fv.Snapshot()
	for _, r := range sys.demoted {
		if sys.remaining[r] > 0 {
			continue
		}
		met.Unfinished = append(met.Unfinished, int(r))
		met.ReadRefused = append(met.ReadRefused, int(r))
		if sys.liveQuorumLost(st, int(r), sys.readQ) {
			met.Stranded = append(met.Stranded, int(r))
		}
	}
	sys.demoted = sys.demoted[:0]
}

// copyIndex recovers the index of t's copy within its request's row — the
// bit it owns in the fault layer's per-request copy masks. A variable's
// copies are pairwise distinct cells, so the packed word identifies it.
func (sys *System) copyIndex(t task) uint {
	for c, cp := range sys.row(int(t.req)) {
		if cp == t.cp {
			return uint(c)
		}
	}
	panic("protocol: in-flight bid is not a copy of its request's variable")
}

// queueRetry records request r, which is short of its quorum, for the
// post-phase retry pass, once.
func (sys *System) queueRetry(r int32) {
	if !sys.stalled[r] {
		sys.stalled[r] = true
		sys.retry = append(sys.retry, r)
	}
}

// refilterTasks runs when the fault epoch moved mid-phase: bids addressed
// at newly failed modules (or, for reads, modules freshly entering repair)
// are dropped and replaced by a spare live copy never selected this phase
// (reusing the freed processor slot). Requests
// whose in-flight bids fell below their remaining quorum are shed to the
// retry pass — their surviving bids would otherwise spin against the
// iteration cap without ever completing.
func (sys *System) refilterTasks(b *batch, st mpc.FaultSnapshot, tasks []task) []task {
	out := tasks[:0]
	for _, t := range tasks {
		r := t.req
		op := b.reqs[r].Op
		if !sys.barred(st, op, t.cp.module()) {
			out = append(out, t)
			continue
		}
		sys.liveBids[r]--
		for c, cp := range sys.row(int(r)) {
			if sys.usedMask[r]&(1<<uint(c)) != 0 || sys.barred(st, op, cp.module()) {
				continue
			}
			sys.usedMask[r] |= 1 << uint(c)
			sys.liveBids[r]++
			b.res.Metrics.RetriedBids++
			out = append(out, task{proc: t.proc, req: r, cp: cp})
			break
		}
		if sys.liveBids[r] < sys.remaining[r] {
			// Shed here, not only in the surviving-task pass below: when
			// every one of r's bids was just dropped, r has no task left in
			// out, and a shed keyed off surviving tasks would never see it —
			// the request would leave the phase unserved and unreported.
			sys.queueRetry(r)
		}
	}
	n := 0
	for _, t := range out {
		r := t.req
		if sys.liveBids[r] < sys.remaining[r] {
			sys.queueRetry(r)
			continue
		}
		out[n] = t
		n++
	}
	return out[:n]
}

// retryStranded is the post-phase bounded retry pass: every request the
// phase loop could not finish gets up to faultAttempts fresh quorum
// selections over the currently live, not-yet-touched copies. Copies already
// granted stay counted (touchedC masks them out of re-selection, so a
// quorum is always quorum-many distinct copies), and a module recovering
// between attempts rescues requests that were stranded when the phase ran.
// Requests still short after the budget are reported in Unfinished, with
// the provably quorum-less subset in Stranded. Its lists live in System
// buffers, so a steady stream of degraded batches allocates nothing here.
func (sys *System) retryStranded(b *batch) {
	reqs, res, geo := b.reqs, b.res, sys.machineProcs
	b.wave = true

	// pending and next are the attempt's requests and the ones it leaves for
	// the next attempt; the two buffers swap roles each attempt.
	pending, next := sys.retry, sys.retryNext
	wave := sys.wave
	for att := 0; att < faultAttempts && len(pending) > 0; att++ {
		next = next[:0]
		idx := 0
		for idx < len(pending) {
			// Pack one wave of re-selected bids into the machine's processor
			// space; oversized retry sets run in several waves, each selected
			// against its own snapshot of the fault set.
			st := b.fv.Snapshot()
			tasks := sys.tasks[:0]
			wave = wave[:0]
			p := 0
			for ; idx < len(pending); idx++ {
				r := pending[idx]
				if sys.remaining[r] <= 0 {
					continue
				}
				row := sys.row(int(r))
				cnt := sys.selectable(b, st, r, geo)
				if int32(cnt) < sys.remaining[r] && reqs[r].Op == ReadWrite && sys.demote(b, st, int(r)) {
					if sys.remaining[r] <= 0 {
						continue // the granted copies already made the write quorum
					}
					cnt = sys.selectable(b, st, r, geo)
				}
				if int32(cnt) < sys.remaining[r] {
					// Short of a quorum right now; a recovery before the
					// next attempt may still rescue it.
					next = append(next, r)
					continue
				}
				if p+cnt > geo && len(wave) > 0 {
					break
				}
				sel := 0
				for c, cp := range row {
					if sel == cnt {
						break
					}
					if sys.touchedC[r]&(1<<uint(c)) != 0 || sys.barred(st, reqs[r].Op, cp.module()) {
						continue
					}
					tasks = append(tasks, task{proc: int32(p), req: r, cp: cp})
					p++
					sel++
				}
				wave = append(wave, r)
			}
			sys.tasks = tasks
			if len(tasks) == 0 {
				continue
			}
			res.Metrics.RetriedBids += len(tasks)
			b.epoch = st.Epoch()
			_, iters := sys.drive(b, tasks, 0, 0)
			res.Metrics.RetryRounds += iters
			res.Metrics.TotalRounds += iters
			for _, r := range wave {
				if sys.remaining[r] > 0 {
					next = append(next, r)
				}
			}
		}
		pending, next = next, pending
	}
	sys.wave = wave[:0]
	st := b.fv.Snapshot()
	for _, r := range pending {
		if sys.remaining[r] <= 0 {
			continue
		}
		res.Metrics.Unfinished = append(res.Metrics.Unfinished, int(r))
		if sys.liveQuorumLost(st, int(r), sys.quorum(reqs[r].Op)) {
			res.Metrics.Stranded = append(res.Metrics.Stranded, int(r))
		}
	}
	sys.retry, sys.retryNext = pending[:0], next[:0]
}

// selectable counts request r's untouched copies that its operation may bid
// for under st, up to geo.
func (sys *System) selectable(b *batch, st mpc.FaultSnapshot, r int32, geo int) int {
	cnt := 0
	for c, cp := range sys.row(int(r)) {
		if cnt == geo {
			break
		}
		if sys.touchedC[r]&(1<<uint(c)) == 0 && !sys.barred(st, b.reqs[r].Op, cp.module()) {
			cnt++
		}
	}
	return cnt
}

// dropBarred is a wave's rebuild when the fault epoch moved: its bids at
// modules now barred for their operation are dropped — a retry's next
// attempt re-selects the request, a repair wave marks its variable dirty.
// A sweep read is barred by failure alone, so a source re-armed mid-wave
// keeps its bid.
func (sys *System) dropBarred(b *batch, st mpc.FaultSnapshot, tasks []task) []task {
	n := 0
	for _, t := range tasks {
		if !sys.barred(st, b.reqs[t.req].Op, t.cp.module()) {
			tasks[n] = t
			n++
		}
	}
	return tasks[:n]
}

// liveQuorumLost reports whether request r's variable currently has fewer
// live copies than quorum q — the ErrQuorumUnreachable verdict. Repairing
// modules deliberately count as live here: a read blocked only by in-flight
// repair is transient (the sweep will certify the copies), so it reports
// ErrIncomplete — retry later — not the stranded verdict.
func (sys *System) liveQuorumLost(st mpc.FaultSnapshot, r int, q int32) bool {
	live := int32(0)
	for _, cp := range sys.row(r) {
		if !st.Failed(uint64(cp.module())) {
			live++
		}
	}
	return live < q
}
