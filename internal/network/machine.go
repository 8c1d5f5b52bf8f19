package network

import (
	"fmt"

	"detshmem/internal/mpc"
)

// Router is a topology that can deliver one packet per (src, dst) pair and
// report the synchronous makespan. Butterfly and Hypercube implement it.
type Router interface {
	RouteMakespan(src, dst []int64) int
}

// Topology selects the interconnect for a Machine.
type Topology int

const (
	// TopoButterfly routes through a d-dimensional butterfly.
	TopoButterfly Topology = iota
	// TopoHypercube routes through a d-dimensional hypercube (e-cube).
	TopoHypercube
)

func (t Topology) String() string {
	switch t {
	case TopoButterfly:
		return "butterfly"
	case TopoHypercube:
		return "hypercube"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// Machine runs MPC round semantics over a bounded-degree interconnect:
// grants are arbitrated exactly as on the MPC (so the protocol behaves
// identically), but Cost() accumulates the routed time — for every protocol
// iteration, the makespan of the request sweep (processor rows → module
// rows) plus the makespan of the reply sweep (granted modules back to their
// processors). This realizes the O(q(Φ·log q + log N)) network-time shape
// the paper states for bounded-degree realizations of the MPC.
type Machine struct {
	inner *mpc.Machine
	rt    Router
	dim   int
	cost  uint64

	src, dst []int64 // packet scratch
}

// NewMachine builds a butterfly-backed machine for the given MPC
// configuration (the default topology).
func NewMachine(cfg mpc.Config) (*Machine, error) {
	return NewMachineTopology(cfg, TopoButterfly)
}

// NewMachineTopology builds a machine over the chosen topology. The network
// has 2^ceil(log2(max(procs, modules))) endpoints; processor p injects at
// endpoint p, module j lives at endpoint j.
func NewMachineTopology(cfg mpc.Config, topo Topology) (*Machine, error) {
	inner, err := mpc.New(cfg)
	if err != nil {
		return nil, err
	}
	size := cfg.Procs
	if cfg.Modules > size {
		size = cfg.Modules
	}
	m := &Machine{inner: inner}
	switch topo {
	case TopoButterfly:
		bf, err := NewButterfly(size)
		if err != nil {
			return nil, err
		}
		m.rt, m.dim = bf, bf.D
	case TopoHypercube:
		hc, err := NewHypercube(size)
		if err != nil {
			return nil, err
		}
		m.rt, m.dim = hc, hc.D
	default:
		return nil, fmt.Errorf("network: unknown topology %v", topo)
	}
	return m, nil
}

// Dimension returns the network dimension d ≈ log₂ N (its diameter scale).
func (m *Machine) Dimension() int { return m.dim }

// Round arbitrates exactly like the MPC and charges the routed cost. The
// round is mpc.Machine.Round's bid list; a bid is routed from its processor's
// endpoint (mpc.BidProc), wherever it sits in the list.
func (m *Machine) Round(bids []int64, grant []bool) int {
	served := m.inner.Round(bids, grant)
	// Request sweep: every bidding processor sends one packet to its module.
	m.src, m.dst = m.src[:0], m.dst[:0]
	for _, b := range bids {
		if b != mpc.Idle {
			m.src = append(m.src, int64(mpc.BidProc(b)))
			m.dst = append(m.dst, mpc.BidModule(b))
		}
	}
	m.cost += uint64(m.rt.RouteMakespan(m.src, m.dst))
	// Reply sweep: each serving module answers its granted processor (at
	// most one packet per source row, by the MPC's one-grant rule).
	m.src, m.dst = m.src[:0], m.dst[:0]
	for i, g := range grant {
		if g {
			m.src = append(m.src, mpc.BidModule(bids[i]))
			m.dst = append(m.dst, int64(mpc.BidProc(bids[i])))
		}
	}
	m.cost += uint64(m.rt.RouteMakespan(m.src, m.dst))
	return served
}

// Cost returns the cumulative routed link steps.
func (m *Machine) Cost() uint64 { return m.cost }
