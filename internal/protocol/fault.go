package protocol

// FaultView is the read side of a dynamic fault model: an interconnect that
// can lose modules at runtime exposes which modules are currently failed so
// the access protocol can re-select quorums over the survivors instead of
// bidding blindly at crashed banks. The methods are *mpc.FaultSet's own, so
// a machine embedding its set (mpc.Failing, netmpc.Client) implements it
// with no code. obtainMachine type-asserts the machine against this
// interface; healthy interconnects don't implement it and pay nothing.
//
// All three methods must be safe to call concurrently with mutation
// (mpc.FaultSet publishes epoch-stamped atomic snapshots).
type FaultView interface {
	// Failed reports whether module m is failed right now.
	Failed(m uint64) bool
	// Epoch increases on every effective fail/recover, letting the round
	// loop detect mid-phase changes with one load per iteration.
	Epoch() uint64
	// Count returns the number of currently failed modules.
	Count() int
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
// quorum, and the intersecting copy is trustworthy. Only a user Read is
// barred so: the repair sweep's reads and writes are barred by failure
// alone.
func (sys *System) barred(fv FaultView, op Op, m int64) bool {
	if fv.Failed(uint64(m)) {
		return true
	}
	return op == Read && sys.rv != nil && sys.rv.Repairing(uint64(m))
}

// selectLive builds the phase task list for request r with the fault set in
// view: failed copies are skipped and the live ones take the cluster's
// processor slots in copy order (quorum re-selection over survivors).
// Requests that cannot reach their quorum are queued for the post-phase retry
// pass and bid nothing now.
func (sys *System) selectLive(b *batch, tasks []task, r, procBase int) []task {
	sys.stalled[r] = false
	sys.usedMask[r] = 0
	sys.touchedC[r] = 0
	sys.liveBids[r] = 0
	op := b.reqs[r].Op
	start := len(tasks)
	assigned := 0
	for c, cp := range sys.row(r) {
		if sys.barred(b.fv, op, cp.module()) {
			continue
		}
		tasks = append(tasks, task{proc: int32(procBase + assigned), req: int32(r), cp: cp})
		sys.usedMask[r] |= 1 << uint(c)
		assigned++
	}
	if int32(assigned) < sys.remaining[r] {
		sys.usedMask[r] = 0
		sys.queueRetry(int32(r))
		return tasks[:start]
	}
	sys.liveBids[r] = int32(assigned)
	return tasks
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
func (sys *System) refilterTasks(b *batch, tasks []task) []task {
	out := tasks[:0]
	for _, t := range tasks {
		r := t.req
		op := b.reqs[r].Op
		if !sys.barred(b.fv, op, t.cp.module()) {
			out = append(out, t)
			continue
		}
		sys.liveBids[r]--
		for c, cp := range sys.row(int(r)) {
			if sys.usedMask[r]&(1<<uint(c)) != 0 || sys.barred(b.fv, op, cp.module()) {
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
// the provably quorum-less subset in Stranded. This path runs only under
// faults and may allocate.
func (sys *System) retryStranded(b *batch) {
	fv, reqs, res, geo := b.fv, b.reqs, b.res, sys.machineProcs
	b.wave, b.afterRound = true, nil

	pending := sys.retry
	wave := sys.wave
	for att := 0; att < faultAttempts && len(pending) > 0; att++ {
		var next []int32
		idx := 0
		for idx < len(pending) {
			// Pack one wave of re-selected bids into the machine's processor
			// space; oversized retry sets run in several waves.
			tasks := sys.tasks[:0]
			wave = wave[:0]
			p := 0
			for ; idx < len(pending); idx++ {
				r := pending[idx]
				if sys.remaining[r] <= 0 {
					continue
				}
				row := sys.row(int(r))
				cnt := 0
				for c, cp := range row {
					if cnt == geo {
						break
					}
					if sys.touchedC[r]&(1<<uint(c)) == 0 && !sys.barred(fv, reqs[r].Op, cp.module()) {
						cnt++
					}
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
					if sys.touchedC[r]&(1<<uint(c)) != 0 || sys.barred(fv, reqs[r].Op, cp.module()) {
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
			_, iters := sys.drive(b, tasks, 0)
			res.Metrics.RetryRounds += iters
			res.Metrics.TotalRounds += iters
			for _, r := range wave {
				if sys.remaining[r] > 0 {
					next = append(next, r)
				}
			}
		}
		pending = next
	}
	sys.wave = wave[:0]
	for _, r := range pending {
		if sys.remaining[r] <= 0 {
			continue
		}
		res.Metrics.Unfinished = append(res.Metrics.Unfinished, int(r))
		if sys.liveQuorumLost(b, int(r)) {
			res.Metrics.Stranded = append(res.Metrics.Stranded, int(r))
		}
	}
	sys.retry = sys.retry[:0]
}

// dropBarred is a wave's rebuild when the fault epoch moved: its bids at
// modules now barred for their operation are dropped — a retry's next
// attempt re-selects the request, a repair wave marks its variable dirty.
// A sweep read is barred by failure alone, so a source re-armed mid-wave
// keeps its bid.
func (sys *System) dropBarred(b *batch, tasks []task) []task {
	n := 0
	for _, t := range tasks {
		if !sys.barred(b.fv, b.reqs[t.req].Op, t.cp.module()) {
			tasks[n] = t
			n++
		}
	}
	return tasks[:n]
}

// liveQuorumLost reports whether request r's variable currently has fewer
// live copies than its quorum — the ErrQuorumUnreachable verdict. Repairing
// modules deliberately count as live here: a read blocked only by in-flight
// repair is transient (the sweep will certify the copies), so it reports
// ErrIncomplete — retry later — not the stranded verdict.
func (sys *System) liveQuorumLost(b *batch, r int) bool {
	q := sys.quorum(b.reqs[r].Op)
	live := int32(0)
	for _, cp := range sys.row(r) {
		if !b.fv.Failed(uint64(cp.module())) {
			live++
		}
	}
	return live < q
}
