package protocol

import (
	"detshmem/internal/cellstore"
	"detshmem/internal/obs"
)

// RepairView is the repair side of a dynamic fault model. An interconnect
// whose fault set distinguishes "recovered but not yet rebuilt" from "live"
// (mpc.Failing over a FaultSet with RecoverPending, netmpc.Client after a
// generation-mismatch reconnect) exposes it so the protocol can (a) bar
// repairing modules from read quorums — their stores may be stale or reborn
// empty — while still counting them toward write quorums, and (b) drive the
// background sweep that rebuilds their copies from surviving majorities and
// certifies them back to fully live.
//
// obtainMachine type-asserts the machine against this interface, exactly
// like FaultView, whose methods are likewise *mpc.FaultSet's own; machines
// without a repair lifecycle don't implement it and pay nothing. All methods
// must be safe to call concurrently with mutation.
type RepairView interface {
	// Repairing reports whether module m is under repair right now.
	Repairing(m uint64) bool
	// RepairGen returns m's current repair generation (0 when m is not
	// repairing). A sweep captures the generation at its start;
	// certification with a stale generation fails, which fences a sweep
	// against a module wiped again while the sweep ran.
	RepairGen(m uint64) uint64
	// RepairCount returns the number of modules under repair.
	RepairCount() int
	// AppendRepairing appends the repairing module ids to buf.
	AppendRepairing(buf []uint64) []uint64
	// CertifyBatch completes the repair of every mods[i] whose generation is
	// still gens[i], making those modules readable again, as one fault-set
	// mutation (one snapshot, one epoch bump), and returns how many took
	// effect. A finished sweep certifies through it, so sibling systems
	// sharing the fault set see one change rather than one per module.
	CertifyBatch(mods, gens []uint64) int
}

// DefaultRepairBudget is the number of variables one repair step scans (see
// RepairStep and the per-batch pump in report): large enough that a sweep
// over a typical test address space finishes in a few steps, small enough
// that a step stays a bounded slice of a flush.
const DefaultRepairBudget = 512

// repairMetrics accumulates one step's repair work. The caller folds it
// into batch metrics (the per-flush pump) or reports it straight to the
// observer (the idle-loop pump); rounds/issued/granted flow to the books
// through obs.RepairEvent only, never through Metrics.TotalRounds, so the
// trace-vs-metrics crosscheck stays exact on both paths.
type repairMetrics struct {
	rounds    int // MPC rounds driven by repair waves
	issued    int // repair bids handed to the interconnect
	granted   int // repair bids granted
	repaired  int // target copies rebuilt (put-if-newer writes granted)
	salvaged  int // variables rebuilt without a sound source majority
	certified int // modules certified back to fully live
}

// repairChunkVars bounds the variables a sweep resolves at once, and so the
// resolution scratch, whatever the step budget is.
const repairChunkVars = 1024

// repairVar is one variable being rebuilt in the current wave; its newest
// (value, timestamp) collects in sys.best at its index in the wave.
type repairVar struct {
	row     int32 // the variable's index in the scanned chunk (see repairSweep.rows)
	salvage bool  // fewer than a read quorum of live non-repairing sources exist
	dirty   bool  // rebuild unsound or incomplete; blocks certification
}

// repairSweep is the scheduler state for the background rebuild: one pass of
// the cursor over the variable space, rebuilding every variable with a copy
// on a module of the sweep set (the repairing modules and their generations,
// snapshotted when the sweep starts). Modules certified at sweep end are the
// ones whose every variable was rebuilt soundly and whose generation never
// moved; everything else waits for the next sweep.
type repairSweep struct {
	active bool
	// The sweep set: mods ascending, gens[i] the generation captured for
	// mods[i], and bitmasks over module ids for the per-copy tests — target
	// marks the sweep set, dirty the modules with an unsoundly rebuilt
	// variable.
	mods, gens    []uint64
	target, dirty []uint64
	cursor        uint64 // next variable the sweep will scan
	// certified records whether the current sweep certified anything; a
	// completed sweep that certified nothing while modules remain repairing
	// pauses the scheduler until the fault epoch moves, so an unrepairable
	// state (sources failed) cannot spin the idle pump. The pause latches
	// only when the fault epoch never moved during the sweep (startEpoch):
	// a sweep that raced a churning fault set may have gone dirty on purely
	// transient failures or re-wipes, and the state it observed says nothing
	// about whether a fresh sweep over the settled fault set would succeed —
	// pausing on it would strand the backlog forever once the churn stops.
	certified  bool
	paused     bool
	pauseEpoch uint64
	startEpoch uint64

	// Scratch, kept at its high-water size across waves and steps.
	chunk []uint64     // the scanned chunk's variables (the owned ones)
	rows  []packedCopy // their resolved copies, chunk-major
	vars  []repairVar  // the chunk's variables with a copy in the sweep set
	reqs  []Request    // the wave's requests, one per variable in vars
	res   Result       // the wave's books, folded into repairMetrics
}

// isTarget reports whether module m is in the sweep set.
func (rep *repairSweep) isTarget(m int64) bool {
	return rep.target[m>>6]>>(uint64(m)&63)&1 == 1
}

// RepairBacklog returns the number of modules awaiting repair certification
// on this system's interconnect (0 when the machine has no repair
// lifecycle). Shard dispatchers poll it to decide whether idle cycles
// should pump RepairStep.
func (sys *System) RepairBacklog() int {
	if sys.rv == nil {
		return 0
	}
	return sys.rv.RepairCount()
}

// RepairStep performs one budget-bounded chunk of background repair outside
// any batch: scanning up to DefaultRepairBudget variables, rebuilding those
// with copies on repairing modules, and certifying modules when their sweep
// completes. It reports whether it made progress; callers loop while true
// and back off when false (the scheduler pauses itself when the remaining
// backlog is unrepairable until the fault set changes). Must be called from
// the goroutine that owns the system (the same discipline as AccessInto).
func (sys *System) RepairStep() bool {
	if sys.machine == nil {
		// No machine yet (no batch has run): build one so a freshly started
		// replica can repair before serving — with room for a full wave, a
		// chunk of variables or N/Copies of them, or the sweep would play
		// one variable per wave.
		wave := max(min(repairChunkVars, int(sys.Mapper.NumModules())/sys.nCopies), 1)
		if err := sys.obtainMachine(wave * sys.nCopies); err != nil {
			return false
		}
	}
	var rm repairMetrics
	did := sys.repairStep(&rm)
	sys.reportRepair(&rm)
	return did
}

// pumpRepair is the per-batch repair budget: AccessInto calls it after the
// batch's own work (and after InterconnectCost is taken), so every flush
// moves the backlog by one bounded step even under sustained traffic. The
// step's work is folded into the batch's Repair* metrics.
func (sys *System) pumpRepair(res *Result) {
	var rm repairMetrics
	sys.repairStep(&rm)
	res.Metrics.RepairedCopies += rm.repaired
	res.Metrics.RepairSalvaged += rm.salvaged
	res.Metrics.RepairRounds += rm.rounds
	res.Metrics.RepairCertified += rm.certified
	sys.reportRepair(&rm)
}

// reportRepair publishes one step's work to the configured repair observer.
func (sys *System) reportRepair(rm *repairMetrics) {
	if sys.ro == nil || (rm.rounds == 0 && rm.certified == 0) {
		return
	}
	sys.ro.ObserveRepair(obs.RepairEvent{
		Copies:    rm.repaired,
		Salvaged:  rm.salvaged,
		Rounds:    rm.rounds,
		Issued:    rm.issued,
		Granted:   rm.granted,
		Certified: rm.certified,
		Backlog:   sys.rv.RepairCount(),
	})
}

// resetRepair drops all sweep state; called when the machine is replaced
// (the captured views would be stale).
func (sys *System) resetRepair() {
	sys.rep.active = false
	sys.rep.paused = false
}

// repairStep runs one chunk of the sweep. Returns whether any work was
// attempted.
func (sys *System) repairStep(rm *repairMetrics) bool {
	rv, fv := sys.rv, sys.fv
	if rv == nil || fv == nil {
		return false
	}
	rep := &sys.rep
	if rv.RepairCount() == 0 {
		rep.active = false
		rep.paused = false
		return false
	}
	if rep.paused {
		if fv.Epoch() == rep.pauseEpoch {
			return false
		}
		rep.paused = false
	}
	if !rep.active {
		rep.mods = rv.AppendRepairing(rep.mods[:0])
		if len(rep.mods) == 0 {
			return false
		}
		// The masks cover every module id, and any stray id the fault set
		// holds beyond them (mods is ascending).
		words := int(max(sys.Mapper.NumModules()-1, rep.mods[len(rep.mods)-1])>>6) + 1
		rep.target, rep.dirty = grow(rep.target, words), grow(rep.dirty, words)
		clear(rep.target)
		clear(rep.dirty)
		rep.gens = rep.gens[:0]
		n := 0
		for _, m := range rep.mods {
			if g := rv.RepairGen(m); g != 0 {
				rep.mods[n] = m
				n++
				rep.gens = append(rep.gens, g)
				rep.target[m>>6] |= 1 << (m & 63)
			}
		}
		rep.mods = rep.mods[:n]
		rep.cursor = 0
		rep.certified = false
		rep.startEpoch = fv.Epoch()
		rep.active = true
	}
	nv := sys.Mapper.NumVars()
	end := rep.cursor + uint64(sys.repairBudget)
	if end > nv || end < rep.cursor {
		end = nv
	}
	sys.scanRepairRange(rep.cursor, end, rm)
	rep.cursor = end
	if rep.cursor >= nv {
		n := 0
		for i, m := range rep.mods {
			if rep.dirty[m>>6]>>(m&63)&1 == 0 {
				rep.mods[n], rep.gens[n] = m, rep.gens[i]
				n++
			}
		}
		if c := rv.CertifyBatch(rep.mods[:n], rep.gens[:n]); c > 0 {
			rm.certified += c
			rep.certified = true
		}
		rep.active = false
		if !rep.certified && rv.RepairCount() > 0 {
			if e := fv.Epoch(); e == rep.startEpoch {
				rep.paused = true
				rep.pauseEpoch = e
			}
		}
	}
	return true
}

// scanRepairRange scans variables [lo, hi) a chunk at a time: the chunk's
// owned variables are resolved once, in bulk, through the System's resolver,
// and those with a copy on a sweep-set module are rebuilt in bounded waves
// that index the resolved rows.
func (sys *System) scanRepairRange(lo, hi uint64, rm *repairMetrics) {
	rep := &sys.rep
	nCopies := sys.nCopies
	group := max(sys.machineProcs/nCopies, 1)
	owns := sys.cfg.Owns
	for lo < hi {
		end := min(lo+repairChunkVars, hi)
		chunk := rep.chunk[:0]
		for v := lo; v < end; v++ {
			if owns == nil || owns(v) {
				chunk = append(chunk, v)
			}
		}
		lo = end
		rep.chunk = chunk
		rep.rows = sys.resolveVars(chunk, rep.rows)
		vars := rep.vars[:0]
		for i := range chunk {
			for _, cp := range rep.rows[i*nCopies:][:nCopies] {
				if rep.isTarget(cp.module()) {
					vars = append(vars, repairVar{row: int32(i)})
					break
				}
			}
		}
		rep.vars = vars
		for len(vars) > 0 {
			n := min(group, len(vars))
			sys.repairWave(vars[:n], rm)
			vars = vars[n:]
		}
	}
}

// repairWave rebuilds one group of variables as a batch whose request i is
// variable i: a read wave of sweep reads collecting the freshest surviving
// (value, timestamp) per variable into sys.best, then a write wave of repair
// writes installing it onto the repairing copies with put-if-newer semantics
// (a concurrent normal write with a newer timestamp always wins). Both waves
// are played by drive, the round loop of the phases.
//
// Soundness rule: a rebuild is sound when it read a full read quorum of live
// non-repairing copies — any read quorum of the c copies intersects every
// write quorum, and a non-repairing copy's timestamp is trustworthy, so the
// max-timestamp value is the variable's latest committed write. When fewer
// sources exist the wave salvages: it reads every live copy including the
// repairing targets themselves and installs the best surviving value. A
// salvage is still certifiable when no copy was unreadable (a wiped copy
// contributes nothing, but nothing readable was ignored); if a failed module
// held a copy we could not read, the variable's freshest value may be
// sitting in that crashed store, so the targets are marked dirty and their
// modules stay uncertified until the fault set changes.
func (sys *System) repairWave(vars []repairVar, rm *repairMetrics) {
	rep := &sys.rep
	fv, rvw := sys.fv, sys.rv
	nCopies := sys.nCopies
	// row is the variable's resolved copies in the chunk scratch.
	row := func(w *repairVar) []packedCopy { return rep.rows[int(w.row)*nCopies:][:nCopies] }
	reqs := grow(rep.reqs, len(vars))
	rep.reqs = reqs
	sys.remaining, sys.best = grow(sys.remaining, len(vars)), grow(sys.best, len(vars))
	b := batch{reqs: reqs, res: &rep.res, fv: fv, wave: true}

	// Read wave: classify copies and bid for the sources. A rebuild needs a
	// read quorum of sources granted, a salvage at least one copy; a
	// variable bidding for fewer is dirty before a round is played.
	tasks := sys.tasks[:0]
	for i := range vars {
		w := &vars[i]
		sources, failed := int32(0), 0
		for _, cp := range row(w) {
			switch m := uint64(cp.module()); {
			case fv.Failed(m):
				failed++
			case !rvw.Repairing(m):
				sources++
			}
		}
		w.salvage = sources < sys.readQ
		start := len(tasks)
		for _, cp := range row(w) {
			m := uint64(cp.module())
			if fv.Failed(m) || !w.salvage && rvw.Repairing(m) {
				continue
			}
			tasks = append(tasks, task{proc: int32(len(tasks)), req: int32(i), cp: cp})
		}
		bids, need := int32(len(tasks)-start), sys.readQ
		if w.salvage {
			need = 1
		}
		w.dirty = w.salvage && failed > 0 || bids < need
		reqs[i] = Request{Var: rep.chunk[w.row], Op: opSweep}
		sys.remaining[i] = bids
		sys.best[i] = cellstore.Cell{}
	}
	sys.tasks = tasks
	sys.sweepWave(&b, tasks, vars, rm)

	// Write wave: install the best value onto the repairing copies. A zero
	// best timestamp means no surviving write — the logically zeroed state is
	// already correct, nothing to install.
	tasks = sys.tasks[:0]
	for i := range vars {
		start := len(tasks)
		if best := sys.best[i]; best.TS != 0 {
			for _, cp := range row(&vars[i]) {
				if !rep.isTarget(cp.module()) || fv.Failed(uint64(cp.module())) {
					continue
				}
				if sys.rs == nil && sys.store.Get(cp.addr()).TS >= best.TS {
					continue // local store already fresh (in-process recovery)
				}
				tasks = append(tasks, task{proc: int32(len(tasks)), req: int32(i), cp: cp})
			}
		}
		reqs[i].Op = RepairWrite
		sys.remaining[i] = int32(len(tasks) - start)
	}
	sys.tasks = tasks
	rm.repaired += sys.sweepWave(&b, tasks, vars, rm)

	// Account salvages and propagate dirt to the sweep set.
	for i := range vars {
		w := &vars[i]
		if w.salvage && !w.dirty {
			rm.salvaged++
		}
		if !w.dirty {
			continue
		}
		for _, cp := range row(w) {
			if m := cp.module(); rep.isTarget(m) {
				rep.dirty[m>>6] |= 1 << (uint64(m) & 63)
			}
		}
	}
}

// sweepWave plays one repair wave through drive and folds its rounds and
// bids into rm — never into a batch's Metrics. A variable whose bids were
// not all granted (dropped at a module that failed mid-wave, or left at the
// iteration bound) is dirty. It returns the copies the wave accessed.
func (sys *System) sweepWave(b *batch, tasks []task, vars []repairVar, rm *repairMetrics) int {
	b.res.Metrics = Metrics{}
	_, iters := sys.drive(b, tasks, 0)
	met := &b.res.Metrics
	rm.rounds += iters
	rm.issued += met.IssuedBids
	rm.granted += met.GrantedBids
	for i := range vars {
		if sys.remaining[i] > 0 {
			vars[i].dirty = true
		}
	}
	return met.CopyAccesses
}
