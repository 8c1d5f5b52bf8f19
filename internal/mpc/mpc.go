// Package mpc simulates the Module Parallel Computer of Mehlhorn–Vishkin:
// N processors and N memory modules connected by a complete bipartite graph,
// proceeding in synchronous rounds. In one round every processor may direct
// one access request at one module, and every module serves exactly one of
// the requests it receives. Access time for a batch is therefore the number
// of rounds, which is governed by the maximum per-module congestion — the
// quantity the Pietracaprina–Preparata memory organization minimizes.
//
// A round is the list of the bids actually made, in ascending processor
// order — a processor that makes no request is simply absent — so it costs
// O(live bids), not O(processors), as Recurrence (2) and Φ charge it. The
// machine arbitrates in one pass over that list (each module serves the
// first, and so the lowest, processor bidding at it) and allocates nothing
// in steady state. Which bidder a module serves is not a parameter: the
// paper's round bounds hold for any choice and the majority rule returns the
// same values under any grant order, so the machine fixes the cheapest rule.
package mpc

import (
	"fmt"

	"detshmem/internal/obs"
)

// Idle is a withdrawn bid: a list entry that bids at no module and is never
// granted. Failing puts it in place of the bids it drops at failed modules.
const Idle int64 = -1

// maxProcs bounds a machine's processor count: a bid carries its processor
// in the high word of a non-negative int64.
const maxProcs = 1 << 31

// maxModules bounds a machine's module count: a bid carries its module in
// the low word.
const maxModules = 1 << 32

// Bid packs processor proc's request at module into one round-list entry.
// proc must be in [0, 2³¹) and module in [0, 2³²).
func Bid(proc int, module int64) int64 { return int64(proc)<<32 | module }

// BidProc returns the processor a bid was made by.
func BidProc(b int64) int { return int(b >> 32) }

// BidModule returns the module a bid is addressed at.
func BidModule(b int64) int64 { return b & (maxModules - 1) }

// Config selects machine parameters.
type Config struct {
	Procs   int // number of processors (P)
	Modules int // number of memory modules (N)
	// Recorder receives one obs.RoundEvent per executed round. Nil means no
	// instrumentation (the default): Round then costs one disabled-recorder
	// check and stays allocation-free. A recorder whose Enabled() reports
	// true buys one extra O(live bids) contention sweep per round, still
	// allocation-free in steady state.
	Recorder obs.Recorder
}

// Machine is a synchronous MPC. Methods are not safe for concurrent use.
type Machine struct {
	cfg   Config
	round uint64 // rounds executed so far
	// claim[mod] == stamp marks a module already claimed this round; stamp
	// moves on every round, so no reset pass is needed.
	claim []uint32
	stamp uint32

	rec obs.Recorder // never nil; obs.Nop when no recorder configured
	// Recorder scratch, sized on first enabled round and reused: per-module
	// load counts and the touched-module list for clearing them.
	loads      []int32
	recTouched []int64
}

// New builds a machine. Procs and Modules must be positive, Procs below 2³¹
// and Modules at most 2³², the most a bid can carry.
func New(cfg Config) (*Machine, error) {
	if cfg.Procs <= 0 || cfg.Modules <= 0 {
		return nil, fmt.Errorf("mpc: need positive Procs and Modules, got %d/%d", cfg.Procs, cfg.Modules)
	}
	if int64(cfg.Procs) >= maxProcs || uint64(cfg.Modules) > maxModules {
		return nil, fmt.Errorf("mpc: %d processors and %d modules do not fit a bid (processors < 2^31, modules ≤ 2^32)", cfg.Procs, cfg.Modules)
	}
	m := &Machine{
		cfg:   cfg,
		claim: make([]uint32, cfg.Modules),
		rec:   cfg.Recorder,
	}
	if m.rec == nil {
		m.rec = obs.Nop
	}
	return m, nil
}

// Procs returns the processor count.
func (m *Machine) Procs() int { return m.cfg.Procs }

// Modules returns the module count.
func (m *Machine) Modules() int { return m.cfg.Modules }

// Rounds returns the number of rounds executed so far.
func (m *Machine) Rounds() uint64 { return m.round }

// Round executes one synchronous round over the round's bid list: bids[i] is
// Bid(p, module) for processor p's request (or Idle), in strictly ascending
// processor order, and grant[i] is set to true iff bid i was the one its
// module served. It returns the number of requests served. len(grant) must
// equal len(bids), which is at most Procs(). A list that is out of order, or
// names a processor or module the machine does not have, panics. Steady-state
// rounds perform no allocation.
func (m *Machine) Round(bids []int64, grant []bool) int {
	if len(grant) != len(bids) || len(bids) > m.cfg.Procs {
		panic(fmt.Sprintf("mpc: round of %d bids and %d grants on %d processors", len(bids), len(grant), m.cfg.Procs))
	}
	served := m.arbitrate(bids, grant)
	if m.rec.Enabled() {
		m.record(bids, served)
	}
	m.round++
	return served
}

// record assembles the round's obs.RoundEvent: one sweep tallies per-module
// loads into the reused scratch, a second sweep over the touched modules
// builds the contention histogram and zeroes the tallies again.
func (m *Machine) record(bids []int64, served int) {
	if m.loads == nil {
		m.loads = make([]int32, m.cfg.Modules)
	}
	ev := obs.RoundEvent{Round: m.round, Granted: served}
	touched := m.recTouched[:0]
	for _, b := range bids {
		if b == Idle {
			continue
		}
		mod := BidModule(b)
		ev.Requests++
		if m.loads[mod] == 0 {
			touched = append(touched, mod)
		}
		m.loads[mod]++
	}
	for _, mod := range touched {
		load := int(m.loads[mod])
		ev.Contention.Observe(load)
		if load > ev.MaxLoad {
			ev.MaxLoad = load
		}
		m.loads[mod] = 0
	}
	m.recTouched = touched
	m.rec.RecordRound(ev)
}

// arbitrate grants each module to the first bid claiming it. The list is in
// ascending processor order, so the first claim is the lowest processor's:
// one pass settles the round.
func (m *Machine) arbitrate(bids []int64, grant []bool) int {
	m.stamp++
	if m.stamp == 0 { // wrapped: stale marks could read as this round's
		clear(m.claim)
		m.stamp = 1
	}
	stamp, claim := m.stamp, m.claim
	served, prev := 0, -1
	for i, b := range bids {
		grant[i] = false
		if b == Idle {
			continue
		}
		p, mod := BidProc(b), BidModule(b)
		if p <= prev || p >= m.cfg.Procs || mod >= int64(len(claim)) {
			panic(fmt.Sprintf("mpc: bid %d (processor %d at module %d) after processor %d: want ascending processors below %d and modules below %d",
				i, p, mod, prev, m.cfg.Procs, len(claim)))
		}
		prev = p
		if claim[mod] != stamp {
			claim[mod] = stamp
			grant[i] = true
			served++
		}
	}
	return served
}
