package protocol

import (
	"detshmem/internal/mpc"
)

// Transport abstracts how the access protocol's synchronous bid rounds reach
// the memory modules — the boundary between the protocol layer (quorum
// selection, phases, retries) and the Module Parallel Computer that executes
// them. A transport builds Machine instances on demand: each System calls
// NewMachine once, when it is built, for an N-processor machine it keeps for
// its lifetime. Many Systems (a service's shards) may build machines over one
// transport, which share whatever persistent state (connections, stores) the
// transport owns.
//
// The transport boundary deliberately sits at the MPC bid level, not the
// protocol level: the paper's constructive map means a client can compute
// every copy's module address with O(1) registers, so the only thing that
// must cross the wire is a round of (module, processor, payload) bids — no
// directory, no remote quorum logic, no coordination between servers.
// DESIGN.md row 26 records the full argument.
//
// Two implementations exist: Inproc (the in-process MPC simulator, the
// default and the zero-regression path) and internal/netmpc's TCP transport,
// where contiguous module ranges live on remote memserver processes.
type Transport interface {
	// NewMachine builds an interconnect machine with the given geometry.
	// Machines hold no resources of their own; the protocol never closes
	// the transport itself — the caller that built the transport owns its
	// lifetime.
	NewMachine(cfg mpc.Config) (Machine, error)
}

// inprocTransport is the default transport: the in-process MPC simulator.
type inprocTransport struct{}

func (inprocTransport) NewMachine(cfg mpc.Config) (Machine, error) { return mpc.New(cfg) }

// Inproc is the in-process transport — today's direct-call path. A nil
// Config.Transport means Inproc; the value exists so configuration plumbing
// (shard, smembench) can name the default explicitly.
var Inproc Transport = inprocTransport{}

// RemoteStore is implemented by interconnect machines whose memory cells
// live on the far side of the transport (netmpc.Client): the protocol
// stages each bid's access payload before the round, the remote module
// applies the winning bid's operation to its own store, and granted reads
// carry the (value, timestamp) pair back in the round reply.
//
// NewGenericSystem type-asserts the machine against this interface, exactly
// like FaultView: in-process machines don't implement it, the System keeps
// using its local store, and the hot path pays one nil check per round.
//
// One behavioural difference from the local store is deliberate: a granted
// bid whose request already completed its quorum ("cancelled" in the
// paper's protocol) still applies its write remotely, because the remote
// module cannot know the quorum state. Extra copies written at the same
// timestamp are harmless under the majority rule — reads take the newest
// timestamp over any quorum — so the observable values are identical.
type RemoteStore interface {
	// StageBid records the access payload of bid pos — the bid at that
	// position of the next Round call's list: the flat copy address, the
	// operation, the value (writes), and the batch timestamp.
	StageBid(pos int32, addr uint64, op Op, value, ts uint64)
	// GrantData returns the (value, timestamp) the remote module attached
	// to the last Round's granted bid pos. Valid only for positions whose
	// grant flag was set, until the next Round.
	GrantData(pos int32) (value, ts uint64)
}
