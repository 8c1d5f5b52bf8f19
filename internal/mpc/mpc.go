// Package mpc simulates the Module Parallel Computer of Mehlhorn–Vishkin:
// N processors and N memory modules connected by a complete bipartite graph,
// proceeding in synchronous rounds. In one round every processor may direct
// one access request at one module, and every module serves exactly one of
// the requests it receives. Access time for a batch is therefore the number
// of rounds, which is governed by the maximum per-module congestion — the
// quantity the Pietracaprina–Preparata memory organization minimizes.
//
// A round is three sequential sweeps — claim (each module keeps its lowest
// bidding processor), grant, reset — and allocates nothing in steady state.
// Which bidder a module serves is not a parameter: the paper's round bounds
// hold for any choice and the majority rule returns the same values under
// any grant order, so the machine fixes the cheapest rule.
package mpc

import (
	"fmt"

	"detshmem/internal/obs"
)

// Idle marks a processor that makes no request this round.
const Idle int64 = -1

// Config selects machine parameters.
type Config struct {
	Procs   int // number of processors (P)
	Modules int // number of memory modules (N)
	// Recorder receives one obs.RoundEvent per executed round. Nil means no
	// instrumentation (the default): Round then costs one disabled-recorder
	// check and stays allocation-free. A recorder whose Enabled() reports
	// true buys one extra O(P) contention sweep per round, still
	// allocation-free in steady state.
	Recorder obs.Recorder
}

// Machine is a synchronous MPC. Methods are not safe for concurrent use.
type Machine struct {
	cfg     Config
	round   uint64 // rounds executed so far
	winner  []uint64
	touched []int64 // modules claimed this round, reused across rounds

	rec obs.Recorder // never nil; obs.Nop when no recorder configured
	// Recorder scratch, sized on first enabled round and reused: per-module
	// load counts and the touched-module list for clearing them.
	loads      []int32
	recTouched []int64
}

// New builds a machine. Procs and Modules must be positive.
func New(cfg Config) (*Machine, error) {
	if cfg.Procs <= 0 || cfg.Modules <= 0 {
		return nil, fmt.Errorf("mpc: need positive Procs and Modules, got %d/%d", cfg.Procs, cfg.Modules)
	}
	m := &Machine{
		cfg:     cfg,
		winner:  make([]uint64, cfg.Modules),
		touched: make([]int64, 0, 64),
		rec:     cfg.Recorder,
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

// ResetRounds zeroes the round counter (metrics convenience).
func (m *Machine) ResetRounds() { m.round = 0 }

// Round executes one synchronous round. reqs[p] is the module processor p
// addresses this round, or Idle. grant[p] is set to true iff p's request was
// the one its module served. It returns the number of requests served.
// len(reqs) and len(grant) must equal Procs(). Steady-state rounds perform
// no allocation.
func (m *Machine) Round(reqs []int64, grant []bool) int {
	if len(reqs) != m.cfg.Procs || len(grant) != m.cfg.Procs {
		panic(fmt.Sprintf("mpc: round slices sized %d/%d, want %d", len(reqs), len(grant), m.cfg.Procs))
	}
	served := m.arbitrate(reqs, grant)
	if m.rec.Enabled() {
		m.record(reqs, served)
	}
	m.round++
	return served
}

// record assembles the round's obs.RoundEvent: one sweep tallies per-module
// loads into the reused scratch, a second sweep over the touched modules
// builds the contention histogram and zeroes the tallies again.
func (m *Machine) record(reqs []int64, served int) {
	if m.loads == nil {
		m.loads = make([]int32, m.cfg.Modules)
	}
	ev := obs.RoundEvent{Round: m.round, Granted: served}
	touched := m.recTouched[:0]
	for _, mod := range reqs {
		if mod == Idle {
			continue
		}
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

// arbitrate runs the claim, grant and reset sweeps of one round. A module
// serves its lowest bidding processor: the claim sweep visits processors in
// ascending order, so the first claim on a module is the winning one.
// winner[mod] holds that processor + 1; zero means "no claim yet".
func (m *Machine) arbitrate(reqs []int64, grant []bool) int {
	touched := m.touched[:0]
	for p, mod := range reqs {
		grant[p] = false
		if mod == Idle {
			continue
		}
		if mod < 0 || mod >= int64(m.cfg.Modules) {
			panic(fmt.Sprintf("mpc: processor %d addresses invalid module %d", p, mod))
		}
		if m.winner[mod] == 0 {
			touched = append(touched, mod)
			m.winner[mod] = uint64(p + 1)
		}
	}
	served := 0
	for p, mod := range reqs {
		if mod == Idle {
			continue
		}
		if m.winner[mod] == uint64(p+1) {
			grant[p] = true
			served++
		}
	}
	for _, mod := range touched {
		m.winner[mod] = 0
	}
	m.touched = touched
	return served
}
