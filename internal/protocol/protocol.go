// Package protocol implements the Section 3 access protocol of
// Pietracaprina–Preparata on top of the core memory organization and the MPC
// simulator: processors are grouped into clusters of q+1, a batch of distinct
// read/write requests is served in at most q+1 phases — the fewest whose bids
// each fit in N/(q+1)² modules, so a full batch plays the paper's q+1 — and
// within a phase the cluster members repeatedly bid for the q+1 copies of
// their cluster's current variable until a quorum (q/2+1, the majority) of
// copies has been touched. The phases overlap: the bids a phase has left after
// its first round ride in the next phase's first round, on the processors
// below that phase's clusters, so the lowest-processor rule serves them
// first, and only the last phase drives its rounds to completion.
// Copies carry timestamps (the Upfal–Wigderson adaptation of Thomas'
// majority-consensus rule), so a read that reaches any read quorum is
// guaranteed to see the most recently written value.
//
// The executor is generic over the Mapper interface, so the comparison
// baselines (Mehlhorn–Vishkin write-all/read-one, single-copy hashing,
// Upfal–Wigderson random graphs) run under the exact same MPC accounting.
//
// A phase's rounds cross the Machine interface, except that over the
// in-process MPC, plain or behind a bare mpc.Failing, its first round — every
// live copy of every request bidding at once, almost all of the phase's bids
// — is played in one pass against the machine's claim table
// (mpc.Machine.Claim), with no task, bid or grant list in between. Under a
// fault view the pass skips the copies barred in one snapshot of the set.
//
// Copy addresses come from one of two places: CompileMapper precomputes any
// Mapper's address map into a dense shared table (the paper's O(log N),
// O(1)-space Section 4 computation, compiled down to an O(1) array read),
// and without a table every batch runs the vectorized Section 4 kernels
// (BulkMapper). TableFits is the size rule between the two. AccessInto
// reuses all per-batch buffers, so steady-state batches allocate nothing on
// either path.
//
// The number of iterations a phase needs is the quantity Φ bounded by
// Theorem 6: Φ ∈ O(N^{1/3} log* N) for constant q. Metrics expose the
// per-iteration live-variable counts so the Recurrence (2) envelope can be
// checked empirically.
package protocol

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"detshmem/internal/cellstore"
	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
)

// Op is the kind of memory access.
type Op uint8

const (
	// Read fetches the variable's current value.
	Read Op = iota
	// Write replaces the variable's value.
	Write
	// ReadWrite reads the variable's value and replaces it in one request:
	// every copy its quorum, max(ReadQuorum, WriteQuorum), touches is read
	// and then overwritten at the batch's timestamp, so the value returned is
	// the one the variable held before the batch — ABD's read-then-write-back
	// over one quorum. Its read is barred from repairing copies as a Read's
	// is; when the read cannot reach the quorum but a Write still can, the
	// request is served as a Write and listed in Metrics.ReadRefused.
	ReadWrite
	// RepairWrite is the repair sweep's write: the module installs the
	// request's best (value, timestamp) pair only if the timestamp is newer
	// than the cell's, so a rebuild can never clobber a concurrent normal
	// write. It is not a user operation — a Request carries Read, Write or
	// ReadWrite — and is named only for transports, which stage it
	// (RemoteStore.StageBid).
	RepairWrite
	// opSweep is the repair sweep's internal read: it collects the newest
	// (value, timestamp) like Read, but only a failed module bars it — a
	// salvage reads repairing copies on purpose. It reaches the machine as a
	// plain Read.
	opSweep
)

// Request is one processor's access request for a batch. Variables within a
// batch must be pairwise distinct (the paper's EREW-style assumption).
type Request struct {
	Var   uint64 // variable index under the system's Mapper
	Op    Op     // Read, Write or ReadWrite
	Value uint64 // payload for Write and ReadWrite; ignored for Read
}

// Metrics reports how the protocol performed on one batch.
type Metrics struct {
	Phases int // phases played: the fewest whose bids fit N/(q+1)² modules, at most q+1
	// PhaseIterations[p] is the number of rounds in which phase p's requests
	// were in flight: its first round, and every later round that still
	// carried one of its bids — into the next phases' first rounds, or the
	// rounds the last phase drives.
	PhaseIterations []int
	// MaxIterations is Φ, the largest PhaseIterations.
	MaxIterations int
	// TotalRounds is the number of MPC rounds the batch actually played,
	// retry rounds included. Phases overlap, so a round can count in two
	// phases' PhaseIterations: TotalRounds - RetryRounds ≤ Σ PhaseIterations.
	TotalRounds int
	// LiveTrace (with Config.TraceLive) has one entry per phase, and in it
	// one entry per round counted in PhaseIterations: how many of the
	// phase's requests were still short of their quorum after that round.
	LiveTrace    [][]int
	CopyAccesses int // total copies touched (grants consumed by quorums)
	// GrantedBids counts every module grant the batch's bids won, including
	// the grants a round gives a request beyond what its quorum still needed
	// (those exceed CopyAccesses). A request's other bids are cancelled in
	// the round its quorum completes, so no later round grants it anything.
	// It equals the MPC's summed served counts over the
	// batch's rounds, which is what lets a round-level trace (internal/obs)
	// be cross-checked exactly against these metrics.
	GrantedBids int
	// InterconnectCost is the machine's cumulative cost for the batch: equal
	// to TotalRounds on the plain MPC, the routed link-step total on a
	// network machine.
	InterconnectCost uint64
	// IssuedBids counts every bid the batch handed to the interconnect,
	// summed over rounds (live requests plus bids a failing machine dropped
	// at crashed modules). A round-level trace balances exactly:
	// Σ RoundEvent.Requests + Σ RoundEvent.Dropped == Σ IssuedBids.
	IssuedBids int
	// Unfinished lists request indices whose quorum could not be met within
	// the iteration bound (only possible under failure injection), and the
	// ReadRefused requests, whose read was not served.
	Unfinished []int
	// Stranded lists the subset of Unfinished whose variable provably had
	// fewer live copies than its quorum when the batch gave up — the
	// requests no retry can serve until a module recovers. Aligned with the
	// ErrQuorumUnreachable verdict. A ReadRefused request is stranded when its
	// variable has fewer live copies than a read quorum.
	Stranded []int
	// ReadRefused lists the subset of Unfinished whose write committed: the
	// ReadWrite requests whose read could not reach its quorum, served as a
	// Write instead. Their Values entry is zero.
	ReadRefused []int
	// RetriedBids counts bids re-selected onto surviving copies after the
	// fault layer dropped or rerouted their original target.
	RetriedBids int
	// RetryRounds counts the MPC rounds spent in post-phase retry passes
	// (already included in TotalRounds).
	RetryRounds int
	// Repair metrics cover the background-repair step this batch pumped
	// (AccessInto runs one budget-bounded repair chunk after the batch's own
	// work when modules are under repair). RepairRounds are NOT included in
	// TotalRounds or IssuedBids — repair work is accounted through
	// obs.RepairEvent so the round-trace crosscheck balances on both the
	// per-batch and the idle-loop pump paths.
	RepairedCopies  int // target copies rebuilt by this batch's repair step
	RepairSalvaged  int // variables rebuilt without a sound source majority
	RepairRounds    int // MPC rounds the repair step drove
	RepairCertified int // modules certified fully live by this batch's step
}

// Result carries read values (aligned with the request slice; zero for
// writes) and the batch metrics.
type Result struct {
	Values  []uint64
	Metrics Metrics
}

// ResolverStrategy says whether a System may turn variable indices into copy
// addresses through a compiled table. There are two resolution paths: O(1)
// reads of the dense table (CompileMapper), fastest when the table fits, and
// the vectorized Section 4 kernels (BulkMapper), which pay algebra per op but
// hold no table — the fit for thin netmpc clients and for large-(q, n)
// schemes. TableFits is the size rule between them.
type ResolverStrategy uint8

const (
	// ResolverAuto (the zero value) resolves through the table when the
	// System has one — Config.Resolver, or a Mapper that is itself a
	// CompiledResolver — and through the bulk kernels otherwise.
	ResolverAuto ResolverStrategy = iota
	// ResolverComputed forbids the table: every batch resolves live through
	// the bulk mapper contract. A System whose Mapper is a CompiledResolver
	// resolves through the underlying organization instead of the table.
	ResolverComputed
)

// String names the strategy as the benchmarks label it.
func (s ResolverStrategy) String() string {
	switch s {
	case ResolverAuto:
		return "auto"
	case ResolverComputed:
		return "computed"
	}
	return fmt.Sprintf("ResolverStrategy(%d)", uint8(s))
}

// Machine abstracts the interconnect executing one synchronous request
// round. bids is the round's live bid list: bids[i] = mpc.Bid(p, module) for
// processor p's request, in strictly ascending processor order, and grant[i]
// reports whether bid i was the one its module served; len(grant) ==
// len(bids), at most the machine's processor count. A processor that makes no
// request is absent, so a round costs what is live. Cost() is the cumulative
// interconnect time in whatever unit the machine charges (rounds for the
// plain MPC, link steps for a routed network).
type Machine interface {
	Round(bids []int64, grant []bool) int
	Cost() uint64
}

// Config tunes the protocol run.
type Config struct {
	// TraceLive records LiveTrace (costs one counter sweep per iteration
	// and allocates for the trace itself).
	TraceLive bool
	// NewMachine overrides interconnect construction (failure injection,
	// routed networks); nil uses the Transport (or the plain MPC). It takes
	// precedence over Transport when both are set.
	NewMachine func(cfg mpc.Config) (Machine, error)
	// Transport selects how bid rounds reach the memory modules: nil (or
	// Inproc) is the in-process MPC simulator, netmpc's TCP transport fans
	// rounds out to remote memserver processes. The System builds machines
	// through the transport but never closes it — the caller owns the
	// transport's lifetime.
	Transport Transport
	// Recorder, when non-nil, is installed on every interconnect machine
	// the system builds, capturing one obs.RoundEvent per MPC round (ring-
	// buffer tracing, contention histograms). The default no-op recorder
	// keeps the batch loop allocation-free; see internal/obs.
	Recorder obs.Recorder
	// Observer, when non-nil, receives one obs.BatchEvent per completed
	// Access/AccessInto (including incomplete batches under failure
	// injection) with the batch's cumulative metrics. obs.Collector
	// implements it.
	Observer obs.BatchObserver
	// Resolver supplies a compiled address map (see CompileMapper) for the
	// system's Mapper. One resolver may be shared by any number of Systems
	// and frontends; it must have been compiled from a mapper with the
	// same geometry as this system's.
	Resolver *CompiledResolver
	// Strategy selects the resolution path (see ResolverStrategy).
	// ResolverComputed rejects a non-nil Resolver.
	Strategy ResolverStrategy
	// Owns, when non-nil, restricts the background repair sweep to the
	// variables it reports true for. internal/shard sets it to the router's
	// predicate, so each shard rebuilds only the variables it serves; nothing
	// else should need it. nil sweeps every variable.
	Owns func(v uint64) bool
}

// System binds a memory organization (as a Mapper), copy storage and an MPC
// configuration into a runnable shared-memory abstraction.
type System struct {
	Mapper Mapper
	// Scheme and Index are set when the system wraps the core organization
	// (NewSystem); nil for generic baseline systems.
	Scheme *core.Scheme
	Index  core.Indexer

	cfg Config
	// The mapper's replication factor and quorums, read once: the batch path
	// asks for them per request. nCopies is also the cluster size: cluster i
	// of a batch is nCopies processors, one per copy of the request it serves
	// in each of the batch's phases (at most nCopies of them, see phaseCount).
	nCopies       int
	readQ, writeQ int32
	// store holds the copies' cells when the machine keeps them in process.
	// A local system allocates it with its machine; a system over a
	// RemoteStore holds none unless CopyState asks for it.
	store *cellstore.Store
	ts    uint64 // batch timestamp, incremented per Access

	// resolver serves compiled copy addresses; nil means live batched
	// resolution through bulkSrc.
	resolver *CompiledResolver
	// bulkSrc is the mapper live resolution runs against: the Mapper itself,
	// or the underlying organization when the Mapper is a compiled table the
	// strategy refuses to use.
	bulkSrc Mapper

	// machine is the paper's MPC, built once with the System and kept for
	// its lifetime: machineProcs = N processors (N rounded up to whole
	// clusters), enough for any batch's phases and any repair wave.
	machine      Machine
	machineProcs int
	machineCost  uint64 // machine.Cost() at the start of the current batch
	// fv is the machine's fault view when it exposes one (mpc.Failing
	// does); nil on healthy interconnects, which keeps every fault hook off
	// the hot path.
	fv FaultView
	// rs is the machine's remote store when the transport keeps memory
	// cells on the far side (netmpc.Client); nil for in-process machines,
	// which keeps the staging hooks off the local hot path.
	rs RemoteStore
	// rv is the machine's repair view when its fault model has a repair
	// lifecycle (mpc.Failing, netmpc.Client); nil otherwise. With rv set,
	// repairing modules are barred from read quorums and the background
	// repair scheduler (repair.go) can run.
	rv RepairView
	// inPlace is the in-process MPC when the machine is that MPC itself or
	// a bare mpc.Failing over it (Failing.InPlace), nil behind any other
	// wrapper or transport. It lets a phase play its first round in place
	// against the machine's claim table (firstRound).
	inPlace *mpc.Machine
	// ro receives repair-step events when the configured Observer also
	// implements obs.RepairObserver (obs.Collector does).
	ro obs.RepairObserver
	// rep is the background repair scheduler's sweep state.
	rep repairSweep
	// repairBudget is DefaultRepairBudget. No caller outside this package's
	// tests ever needed another value, so it is not configuration; those
	// tests shrink it to land churn mid-sweep, or set it negative to switch
	// the per-batch pump off.
	repairBudget int
	// maxIter bounds the rounds one drive plays for a phase or wave: 8N+64,
	// which only requests that are genuinely unservable (a variable lost a
	// quorum of its copies to failed modules) ever reach — they are reported
	// in Metrics.Unfinished and Access returns ErrIncomplete. Like
	// repairBudget it is not configuration: no caller ever reached it, and
	// only this package's tests lower it to make it trip.
	maxIter int

	// Per-batch scratch, reused across Access calls so the iteration loop
	// is allocation-free once the buffers reach their high-water sizes.
	seen      DistinctBatch    // AccessInto's copy of its batch, for the duplicate check
	rows      []packedCopy     // the batch's resolved copies, request-major
	remaining []int32          // copies each request still needs
	best      []cellstore.Cell // newest (value, timestamp) each read has seen
	tasks     []task           // the phase's or wave's in-flight bids
	flight    []int            // the phases with a bid in the current round
	reads     []readRef        // the round's granted reads, cells not yet fetched
	writes    []writeRef       // the round's granted writes, not yet applied
	repairs   []readRef        // the round's granted repair writes: best[req] goes to addr
	varsBuf   []uint64         // the batch's variable vector
	bulkMods  []uint64         // bulk path: resolved modules, vars-major
	bulkAddrs []uint64         // bulk path: resolved addresses, vars-major
	// bids and grant are the round's bid list and its answers; they grow
	// with the longest list played.
	bids  []int64
	grant []bool

	// Fault-layer scratch, touched only when fv is non-nil (see fault.go).
	liveBids  []int32  // ungranted in-flight bids per request in the current phase
	usedMask  []uint64 // copies already selected this phase (bitmask)
	touchedC  []uint64 // copies granted so far for the request (bitmask)
	stalled   []bool   // request already queued for retry
	retry     []int32  // requests awaiting a post-phase retry pass
	retryNext []int32  // requests a retry attempt leaves for the next one
	wave      []int32  // requests issued in the current retry wave
	demoted   []int32  // ReadWrite requests served as Writes (demote)

	// Convenience-wrapper scratch (ReadBatch/WriteBatch), reused across
	// calls so the wrappers stay allocation-free too.
	convReqs []Request
	convRes  Result
}

// NewSystem builds a protocol system for the Pietracaprina–Preparata scheme.
func NewSystem(s *core.Scheme, idx core.Indexer, cfg Config) (*System, error) {
	sys, err := NewGenericSystem(NewCoreMapper(s, idx), cfg)
	if err != nil {
		return nil, err
	}
	sys.Scheme = s
	sys.Index = idx
	return sys, nil
}

// NewGenericSystem builds a protocol system over any Mapper. It validates
// the quorum-intersection requirement ReadQuorum + WriteQuorum > Copies.
func NewGenericSystem(m Mapper, cfg Config) (*System, error) {
	r, w, c := m.ReadQuorum(), m.WriteQuorum(), m.Copies()
	if r < 1 || w < 1 || r > c || w > c {
		return nil, fmt.Errorf("protocol: quorums (%d,%d) out of range for %d copies", r, w, c)
	}
	if r+w <= c {
		return nil, fmt.Errorf("protocol: quorums (%d,%d) do not intersect over %d copies", r, w, c)
	}
	if err := checkPackable(m); err != nil {
		return nil, err
	}
	resolver, bulkSrc := cfg.Resolver, m
	compiled, _ := m.(*CompiledResolver)
	switch cfg.Strategy {
	case ResolverAuto:
		if resolver == nil {
			resolver = compiled
		} else if err := resolver.compatibleWith(m); err != nil {
			return nil, err
		}
	case ResolverComputed:
		if resolver != nil {
			return nil, fmt.Errorf("protocol: strategy %v conflicts with an attached compiled resolver", cfg.Strategy)
		}
		if compiled != nil {
			// The Mapper happens to be a compiled table: resolve through the
			// organization it was compiled from instead of the table.
			bulkSrc = compiled.Mapper()
		}
	default:
		return nil, fmt.Errorf("protocol: unknown resolver strategy %d", cfg.Strategy)
	}
	sys := &System{
		Mapper:   m,
		cfg:      cfg,
		nCopies:  c,
		readQ:    int32(r),
		writeQ:   int32(w),
		resolver: resolver,
		bulkSrc:  bulkSrc,

		repairBudget: DefaultRepairBudget,
		maxIter:      8*int(m.NumModules()) + 64,
		machineProcs: (int(m.NumModules()) + c - 1) / c * c,
	}
	if err := sys.buildMachine(); err != nil {
		return nil, err
	}
	sys.ro, _ = cfg.Observer.(obs.RepairObserver)
	if o, ok := cfg.Observer.(obs.ResolverObserver); ok && resolver != nil {
		// The table is immutable, so its residency is published once; every
		// System sharing it reports the same figure to its own observer.
		o.ObserveResolverResidency(resolver.ResidentBytes())
	}
	return sys, nil
}

// Close does nothing. The System's machine lives as long as the System and
// holds nothing to release; the transport belongs to the caller.
//
// Deprecated: a System needs no closing.
func (sys *System) Close() {}

// task is one in-flight bid: processor proc bids for one copy of request req.
// The copy's index within its row is not carried; the fault layer, the only
// reader, recovers it from the row (copyIndex).
type task struct {
	proc int32
	req  int32
	cp   packedCopy
}

// readRef is a granted read whose cell is still to be fetched: from the local
// store at addr, or from the remote module's reply to bid pos of the round. A
// granted repair write reuses it to name the cell best[req] is installed at.
type readRef struct {
	addr uint64
	pos  int32
	req  int32
}

// writeRef is a granted write still to be applied to the local store.
type writeRef struct {
	addr, val uint64
}

// batch is the state of one AccessInto call, handed from stage to stage — or
// of one repair wave, whose request i is swept variable i.
type batch struct {
	reqs []Request
	res  *Result
	// phases is the number of phases the batch plays (phaseCount): request r
	// is served in phase r % phases by cluster r / phases.
	phases int
	// fv is the machine's fault view, nil when it has none or when the copy
	// bitmasks of the fault layer would not fit a word (a repair wave, which
	// keeps no masks, always has it); every fault hook is gated on it, so
	// healthy systems pay nothing.
	fv FaultView
	// epoch is the epoch of the fault snapshot the in-flight bids were
	// selected under; whoever selects them sets it.
	epoch uint64
	// wave marks a retry or repair wave: when the epoch moves, the bids at
	// barred modules are dropped (dropBarred) rather than re-selected.
	wave bool
}

// row returns the resolved copies of the batch's request r.
func (sys *System) row(r int) []packedCopy {
	return sys.rows[r*sys.nCopies:][:sys.nCopies]
}

// quorum returns the number of copies the request's operation must touch.
func (sys *System) quorum(op Op) int32 {
	switch op {
	case Write:
		return sys.writeQ
	case ReadWrite:
		return max(sys.readQ, sys.writeQ)
	}
	return sys.readQ
}

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Access executes one batch of at most N distinct-variable requests and
// returns read values plus metrics. The batch is one synchronous
// shared-memory step: all writes in it carry the same timestamp, and a read
// in a later batch is guaranteed to observe the latest earlier write.
//
// Access allocates a fresh Result per call; use AccessInto on latency- or
// allocation-sensitive paths.
func (sys *System) Access(reqs []Request) (*Result, error) {
	res := &Result{}
	err := sys.AccessInto(reqs, res)
	if err != nil && !errors.Is(err, ErrIncomplete) {
		return nil, err
	}
	return res, err
}

// AccessInto is the allocation-free variant of Access: it executes the
// batch and writes read values and metrics into res, reusing res's slices
// and the System's internal buffers. After a warm-up batch of each size,
// steady-state calls perform no allocation (TraceLive and failure paths
// excepted). res must not alias the request slice and is valid until the
// next AccessInto on the same Result.
//
// AccessInto checks the batch by building it into the System's own
// DistinctBatch, whose index rejects a repeated variable, and then serves it
// as AccessDistinctInto does.
func (sys *System) AccessInto(reqs []Request, res *Result) error {
	if err := sys.checkSize(len(reqs)); err != nil {
		return err
	}
	numVars := sys.Mapper.NumVars()
	b := &sys.seen
	b.Reset()
	for _, r := range reqs {
		if r.Var >= numVars {
			return errVarRange(r.Var, numVars)
		}
		if _, added := b.Add(r); !added {
			return errorf(ErrDuplicateVar, "protocol: variable %d requested twice in one batch", r.Var)
		}
	}
	return sys.access(b.Requests(), res)
}

// AccessDistinctInto is AccessInto for a batch built as a DistinctBatch,
// distinct by construction: it checks the batch's size and variable range
// and serves its requests in place, with no copy and no second index — so a
// ReadWrite served as a Write (Metrics.ReadRefused) is left with Op Write.
// res is valid until the next access on the same Result.
func (sys *System) AccessDistinctInto(b *DistinctBatch, res *Result) error {
	if err := sys.checkSize(b.Len()); err != nil {
		return err
	}
	numVars := sys.Mapper.NumVars()
	for _, r := range b.Requests() {
		if r.Var >= numVars {
			return errVarRange(r.Var, numVars)
		}
	}
	return sys.access(b.Requests(), res)
}

// checkSize enforces the admission rule that a batch holds at most N
// requests.
func (sys *System) checkSize(n int) error {
	if modules := sys.Mapper.NumModules(); uint64(n) > modules {
		return errorf(ErrBatchTooLarge, "protocol: batch of %d exceeds N = %d", n, modules)
	}
	return nil
}

func errVarRange(v, numVars uint64) error {
	return errorf(ErrVarOutOfRange, "protocol: variable %d out of range [0,%d)", v, numVars)
}

// access serves a checked batch of distinct requests. It runs as stages —
// resolve, then per phase select and drive, then deliver the read values and
// report — and each round drive plays is itself staged: bid, decide, commit
// cells (see round). Over the in-process MPC, plain or behind a bare
// mpc.Failing, a phase's first round, which carries almost all of its bids,
// is played by firstRound instead: select, bid and decide in one pass.
//
// The phases overlap. A phase plays its first round and then only as many
// more as it takes for its bids still in flight to fit the processors the
// next phase's clusters leave spare — usually none: the leftovers become the
// first bids of the next phase's first round (carryOver), on its lowest
// processors, so no round bids from more than the machine's processors. The
// last phase drives to completion. The machine has N processors, so the
// leftovers always fit beside the next phase's clusters.
func (sys *System) access(reqs []Request, res *Result) error {
	sys.ts++
	res.Values = grow(res.Values, len(reqs))
	clear(res.Values)
	res.Metrics = Metrics{
		PhaseIterations: res.Metrics.PhaseIterations[:0],
		LiveTrace:       res.Metrics.LiveTrace[:0],
		Unfinished:      res.Metrics.Unfinished[:0],
		Stranded:        res.Metrics.Stranded[:0],
		ReadRefused:     res.Metrics.ReadRefused[:0],
	}
	phases := sys.phaseCount(len(reqs))
	if phases == 0 {
		sys.observeBatch(reqs, res)
		return nil
	}
	sys.machineCost = sys.machine.Cost()
	b := batch{reqs: reqs, res: res, phases: phases}
	sys.resolveBatch(&b)
	met := &res.Metrics
	met.Phases = phases
	carry := sys.tasks[:0] // the previous phase's bids still in flight
	for phase := 0; phase < phases; phase++ {
		met.PhaseIterations = append(met.PhaseIterations, 0)
		if sys.cfg.TraceLive {
			met.LiveTrace = append(met.LiveTrace, nil)
		}
		// room is how many bids the phase may leave in flight for the next
		// one: the processors the next phase's clusters leave spare. The
		// last phase drives to completion.
		room := 0
		if next := phase + 1; next < phases {
			room = sys.machineProcs - (len(reqs)-next+phases-1)/phases*sys.nCopies
		}
		var tasks []task
		played := 0
		if sys.inPlace != nil && sys.maxIter > 0 {
			var ok bool
			if tasks, ok = sys.firstRound(&b, phase, carry); ok {
				played = 1
			}
		} else {
			tasks = sys.selectPhase(&b, phase, carry)
		}
		left, rounds := sys.drive(&b, tasks, played, room)
		met.TotalRounds += rounds
		if len(left) > room { // the iteration bound tripped
			sys.abandon(&b, left)
			left = left[:0]
		}
		carry = left
	}
	met.MaxIterations = slices.Max(met.PhaseIterations)
	if b.fv != nil {
		if len(sys.retry) > 0 {
			sys.retryStranded(&b)
		}
		sys.refuseReads(&b)
	}
	// Completed reads deliver their value in one pass over the batch, in
	// order, rather than phase by phase in strides of phases. A ReadWrite
	// served as a Write carries Op Write by now, so it delivers nothing.
	for r := range reqs {
		if reqs[r].Op != Write && sys.remaining[r] <= 0 {
			res.Values[r] = sys.best[r].Val
		}
	}
	return sys.report(&b)
}

// phaseCount returns the number of phases a batch of n requests plays: the
// fewest whose bids — Copies per request — each fit in N/Copies² modules, and
// at most Copies, the paper's count for a full batch of N. Theorem 6 bounds Φ
// for any set of distinct variables, not only N/Copies of them, so a small
// batch need not be spread over Copies phases. Larger phases cost more bids to
// contention, and from about 2·N/Copies³ requests a phase the in-process cost
// per request outgrows the rounds saved (EXPERIMENTS.md E35).
func (sys *System) phaseCount(n int) int {
	c := sys.nCopies
	perPhase := max(int(sys.Mapper.NumModules())/(c*c*c), 1)
	return min(c, (n+perPhase-1)/perPhase)
}

// resolveBatch resolves every copy of every requested variable into sys.rows
// (the per-processor O(log N) address computation of Section 4 — an O(1)
// table read per copy when a compiled resolver is attached) and sizes the
// per-request scratch, the fault layer's included.
func (sys *System) resolveBatch(b *batch) {
	n := len(b.reqs)
	vars := grow(sys.varsBuf, n)
	sys.varsBuf = vars
	for i := range b.reqs {
		vars[i] = b.reqs[i].Var
	}
	sys.rows = sys.resolveVars(vars, sys.rows)
	sys.remaining = grow(sys.remaining, n)
	sys.best = grow(sys.best, n)
	if sys.fv != nil && sys.nCopies <= 64 {
		b.fv = sys.fv
		sys.liveBids = grow(sys.liveBids, n)
		sys.usedMask = grow(sys.usedMask, n)
		sys.touchedC = grow(sys.touchedC, n)
		sys.stalled = grow(sys.stalled, n)
		sys.retry = sys.retry[:0]
		sys.demoted = sys.demoted[:0]
	}
}

// resolveVars is the System's one resolution path, shared by batches and the
// repair sweep: it gathers the packed (module, address) of every copy of
// every variable in vars into out (vars-major, entry i·Copies+c) — straight
// from the compiled table's rows when a resolver is attached, and through the
// mapper's batched bulk contract otherwise. All buffers are reused, so the
// steady state is allocation-free.
func (sys *System) resolveVars(vars []uint64, out []packedCopy) []packedCopy {
	nc := sys.nCopies
	out = grow(out, len(vars)*nc)
	if sys.resolver != nil {
		// An indexed loop, not copy: rows are a few words, and without a call
		// per row the table misses of neighbouring rows overlap.
		table := sys.resolver.table
		for i, v := range vars {
			dst, src := out[i*nc:][:nc], table[v*uint64(nc):][:nc]
			for c := range dst {
				dst[c] = src[c]
			}
		}
		return out
	}
	mods, addrs := AppendCopyAddrs(sys.bulkSrc, sys.bulkMods[:0], sys.bulkAddrs[:0], vars, nc)
	sys.bulkMods, sys.bulkAddrs = mods, addrs
	for i := range out {
		out[i] = packCopy(mods[i], addrs[i])
	}
	return out
}

// selectPhase builds the phase's task list: the bids carried from the
// previous phase first, on the lowest processors (carryOver), then cluster i
// serving request i·phases+phase from the next Copies processors, member j
// bidding for copy j — the paper's rule: all copies bid, and a variable's
// outstanding bids are cancelled once its quorum succeeded. Under a fault
// view, selection routes around the modules barred in one snapshot
// (openRequest): the members whose copies are barred sit the phase out.
func (sys *System) selectPhase(b *batch, phase int, carry []task) []task {
	var st mpc.FaultSnapshot
	if b.fv != nil {
		st = b.fv.Snapshot()
	}
	tasks := sys.carryOver(b, st, carry)
	for r, procBase := phase, len(tasks); r < len(b.reqs); r, procBase = r+b.phases, procBase+sys.nCopies {
		sys.remaining[r] = sys.quorum(b.reqs[r].Op)
		sys.best[r] = cellstore.Cell{}
		row := sys.row(r)
		if b.fv == nil { // no copy masks: any number of copies
			for j, cp := range row {
				tasks = append(tasks, task{proc: int32(procBase + j), req: int32(r), cp: cp})
			}
			continue
		}
		live, ok := sys.openRequest(b, st, r)
		if !ok {
			continue
		}
		sys.liveBids[r] = int32(bits.OnesCount64(live))
		for ; live != 0; live &= live - 1 {
			j := bits.TrailingZeros64(live)
			tasks = append(tasks, task{proc: int32(procBase + j), req: int32(r), cp: row[j]})
		}
	}
	sys.tasks = tasks // keep the grown buffer; the rounds compact it in place
	return tasks
}

// carryOver readies the bids the previous phase left in flight to open this
// phase's first round. When the fault epoch moved since they were selected,
// they are refiltered against st by drive's rule (refilterTasks); then they
// are renumbered onto processors 0…k-1, below the phase's clusters, so the
// lowest-processor rule serves them first. The batch epoch becomes st's.
func (sys *System) carryOver(b *batch, st mpc.FaultSnapshot, carry []task) []task {
	if b.fv != nil {
		if len(carry) > 0 && st.Epoch() != b.epoch {
			carry = sys.refilterTasks(b, st, carry)
		}
		b.epoch = st.Epoch()
	}
	for i := range carry {
		carry[i].proc = int32(i)
	}
	return carry
}

// firstRound plays a phase's first round in place on the in-process machine
// (sys.inPlace): the bids carried from the previous phase (carryOver) claim
// first, then one pass over the phase's resolved rows. Under a fault view it
// reads one snapshot and, unless nothing is failed or repairing in it, opens
// each request against it (openRequest); otherwise every copy is live. Each
// live copy claims its module in the machine's claim table from its member's
// slot (won marks a row's grants in one word, so the path is kept to at most
// 64 copies), a granted copy the quorum still needs is queued for
// commitCells, and only the ungranted bids of requests still short of their
// quorum stay tasks. It is selectPhase, round and decide fused — the carried
// bids' grants go through decide itself — and leaves the same books (tasks,
// the fault layer's copy masks and liveBids, queued grants, retries and
// demotions), since its claims are the bids selectPhase would list, in the
// same order, and a request's bids are consecutive, so it is complete or not
// by the end of its row. The later rounds carry few bids and stay on the
// generic path. The batch epoch becomes the snapshot's, so a mutation after
// the round still makes drive refilter. It reports whether the round was
// played: one with no carried bid and no request able to reach a quorum is
// not.
func (sys *System) firstRound(b *batch, phase int, carry []task) ([]task, bool) {
	var st mpc.FaultSnapshot
	clean := true // nothing failed or repairing: every copy is live
	if b.fv != nil {
		st = b.fv.Snapshot()
		clean = st.Count() == 0 && st.RepairCount() == 0
	}
	carry = sys.carryOver(b, st, carry)
	flight := b.inFlight(carry, sys.flight[:0])
	m := sys.inPlace
	m.OpenRound()
	carried, prev := 0, -1 // the carried bids' grants
	sys.grant = grow(sys.grant, len(carry))
	grant := sys.grant
	for i, t := range carry {
		grant[i] = m.Claim(prev, i, t.cp.module())
		if grant[i] {
			carried++
		}
		prev = i
	}
	tasks := sys.decide(b, carry) // books the carried grants and resets the queues
	reads, writes := sys.reads, sys.writes
	nc := sys.nCopies
	all := uint64(1)<<uint(nc) - 1
	granted, consumed, barred := 0, 0, 0
	first := len(carry) // the phase's first processor
	r, procBase := phase, first
	for ; r < len(b.reqs); r, procBase = r+b.phases, procBase+nc {
		row := sys.row(r)
		live := all
		if !clean {
			sys.remaining[r] = sys.quorum(b.reqs[r].Op)
			var ok bool
			live, ok = sys.openRequest(b, st, r)
			barred += nc - bits.OnesCount64(live)
			if !ok {
				sys.best[r] = cellstore.Cell{}
				continue
			}
		}
		// Claim the live copies first; won marks the served ones.
		var won uint64
		for l := live; l != 0; l &= l - 1 {
			j := bits.TrailingZeros64(l)
			if m.Claim(prev, procBase+j, row[j].module()) {
				won |= 1 << j
			}
			prev = procBase + j
		}
		granted += bits.OnesCount64(won)
		rq := &b.reqs[r]
		need := sys.quorum(rq.Op) // a demoted ReadWrite's Op is Write by now
		sys.best[r] = cellstore.Cell{}
		// Queue the grants the quorum needs, in copy order: a ReadWrite's
		// copy is read and then written (commitCells reads first). A read
		// has no pos: only a remote machine's replies are read by position.
		w := won
		for ; w != 0 && need > 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			if rq.Op != Read {
				writes = append(writes, writeRef{addr: row[j].addr(), val: rq.Value})
			}
			if rq.Op != Write {
				reads = append(reads, readRef{addr: row[j].addr(), req: int32(r)})
			}
			need--
			consumed++
		}
		sys.remaining[r] = need
		lost := live &^ won
		if need == 0 {
			lost = 0 // cancel-at-quorum: a complete request's losing bids go
		}
		for l := lost; l != 0; l &= l - 1 {
			j := bits.TrailingZeros64(l)
			tasks = append(tasks, task{proc: int32(procBase + j), req: int32(r), cp: row[j]})
		}
		if b.fv != nil {
			if clean { // openRequest opened the others
				sys.stalled[r], sys.usedMask[r] = false, live
			}
			sys.touchedC[r] = won &^ w // the grants taken
			sys.liveBids[r] = int32(bits.OnesCount64(lost))
		}
	}
	sys.tasks = tasks
	own := procBase - first - barred // the phase's processors, less the barred copies' members
	if first+own == 0 {
		return tasks, false // the open round claimed nothing: leave it unplayed
	}
	if own > 0 {
		flight = append(flight, phase)
	}
	m.CloseRound(carried + granted)
	sys.reads, sys.writes = reads, writes
	met := &b.res.Metrics
	met.IssuedBids += first + own
	met.GrantedBids += granted
	met.CopyAccesses += consumed
	sys.commitCells()
	sys.flight = flight
	sys.bookRound(b, flight)
	return tasks, true
}

// inFlight appends to dst the phases with a bid in tasks, a task list of the
// phase loop. Such a list is ordered by phase — the bids a phase carries sit
// below the next phase's clusters, and every round keeps the order — so each
// phase's bids are one run, and the runs are found by binary search.
func (b *batch) inFlight(tasks []task, dst []int) []int {
	for len(tasks) > 0 {
		ph := int(tasks[0].req) % b.phases
		dst = append(dst, ph)
		tasks = tasks[sort.Search(len(tasks), func(i int) bool { return int(tasks[i].req)%b.phases > ph }):]
	}
	return dst
}

// bookRound counts a played round against each phase in flight in it (its
// PhaseIterations) and, with TraceLive, appends to each such phase's
// LiveTrace how many of its requests (phase, phase+phases, …) are still
// short of their quorum.
func (sys *System) bookRound(b *batch, flight []int) {
	met := &b.res.Metrics
	for _, ph := range flight {
		met.PhaseIterations[ph]++
		if !sys.cfg.TraceLive {
			continue
		}
		cnt := 0
		for r := ph; r < len(b.reqs); r += b.phases {
			if sys.remaining[r] > 0 {
				cnt++
			}
		}
		met.LiveTrace[ph] = append(met.LiveTrace[ph], cnt)
	}
}

// drive plays rounds until at most room bids are left in flight, or the
// iteration bound trips, and returns the bids left over and the rounds
// played, counting the iters already played (a phase's first round, when
// firstRound played it). A phase that has not yet played a round plays one
// whatever room is. Room is the spare processors of the next phase, which
// the leftovers ride in (access); the last phase and every wave have none. It
// is round's only caller: phases, retry waves and repair waves all cross the
// machine boundary here, and a phase's rounds are booked against the phases
// in flight in them (bookRound). When the fault epoch moved since the bids
// were selected, they are rebuilt before the next round — a phase drops bids
// at newly barred modules, re-selects spare live copies and sheds requests
// that can no longer reach a quorum (refilterTasks); a wave drops its barred
// bids (dropBarred). Either rebuild classifies against the snapshot whose
// epoch it noticed.
func (sys *System) drive(b *batch, tasks []task, iters, room int) ([]task, int) {
	for len(tasks) > 0 && (len(tasks) > room || iters == 0) && iters < sys.maxIter {
		if b.fv != nil {
			if st := b.fv.Snapshot(); st.Epoch() != b.epoch {
				b.epoch = st.Epoch()
				if b.wave {
					tasks = sys.dropBarred(b, st, tasks)
				} else {
					tasks = sys.refilterTasks(b, st, tasks)
				}
				if len(tasks) == 0 {
					break
				}
			}
		}
		if b.wave {
			tasks = sys.round(b, tasks)
		} else {
			sys.flight = b.inFlight(tasks, sys.flight[:0])
			tasks = sys.round(b, tasks)
			sys.bookRound(b, sys.flight)
		}
		iters++
	}
	return tasks, iters
}

// round plays one MPC round for the in-flight bids and returns those still in
// flight afterwards. It is three passes, so that the cell accesses — the
// cache misses of the batch — are issued back to back and overlap instead of
// each waiting behind a request's bookkeeping: bid (and stage payloads, when
// the cells are remote), decide what every grant means, then fetch and apply
// the granted cells. Batching is free of semantics: a batch's variables are
// pairwise distinct, so a round's granted copies are distinct addresses, and
// the newest-timestamp rule does not depend on the order copies are read in.
//
// The round's bid list is the task list itself: every task list is in
// ascending processor order (carried bids are numbered from 0, a phase's
// clusters bid from their own slots above them in copy order, a wave numbers
// its bids by position, a re-selected bid takes the dropped one's place and
// processor, and decide and firstRound compact in order), so bid i is task i
// and grant[i] answers it. A phase's first round
// played by firstRound builds no bid list, so there the invariant holds from
// the phase's second round on.
func (sys *System) round(b *batch, tasks []task) []task {
	sys.bids, sys.grant = grow(sys.bids, len(tasks)), grow(sys.grant, len(tasks))
	bids := sys.bids
	for i, t := range tasks {
		bids[i] = mpc.Bid(int(t.proc), t.cp.module())
	}
	if sys.rs != nil {
		// The remote module applies the winning bid's operation itself, so
		// the payload travels with the bid.
		for i, t := range tasks {
			rq := &b.reqs[t.req]
			op, val, ts := rq.Op, rq.Value, sys.ts
			switch op {
			case opSweep:
				op, val, ts = Read, 0, 0
			case RepairWrite:
				val, ts = sys.best[t.req].Val, sys.best[t.req].TS
			}
			sys.rs.StageBid(int32(i), t.cp.addr(), op, val, ts)
		}
	}
	sys.machine.Round(bids, sys.grant)
	b.res.Metrics.IssuedBids += len(tasks)
	tasks = sys.decide(b, tasks)
	sys.commitCells()
	return tasks
}

// decide is the sequential bookkeeping of a round: it counts the grants,
// queues the cell access of every grant a quorum still needed onto
// sys.reads, sys.writes or sys.repairs — both of the first two for a
// ReadWrite (a grant to a request whose quorum already completed is a
// cancelled bid whose result is unused), and returns the ungranted bids that
// stay in flight. A sweep read queues as a read; only user requests keep copy
// masks.
//
// Invariant: a bid is in flight after a round only if its request is still
// short of its quorum — the paper's cancel-at-quorum rule, applied per round.
// A grant later in the pass may complete the request of a bid the pass has
// already kept, so the ungranted bids are cancelled after the pass, once
// every grant is counted. Everything downstream (refilterTasks, abandon)
// relies on the invariant.
func (sys *System) decide(b *batch, tasks []task) []task {
	grant, remaining := sys.grant[:len(tasks)], sys.remaining
	reads, writes := sys.reads[:0], sys.writes[:0]
	sys.repairs = sys.repairs[:0]
	next := tasks[:0]
	granted, consumed := 0, 0
	for i, t := range tasks {
		r := t.req
		if !grant[i] {
			next = append(next, t)
			continue
		}
		granted++
		if remaining[r] <= 0 {
			continue
		}
		remaining[r]--
		consumed++
		rq := &b.reqs[r]
		switch rq.Op {
		case Write:
			writes = append(writes, writeRef{addr: t.cp.addr(), val: rq.Value})
		case RepairWrite:
			sys.repairs = append(sys.repairs, readRef{addr: t.cp.addr(), req: r})
		case ReadWrite:
			writes = append(writes, writeRef{addr: t.cp.addr(), val: rq.Value})
			fallthrough
		default:
			reads = append(reads, readRef{addr: t.cp.addr(), pos: int32(i), req: r})
		}
		if b.fv != nil && rq.Op <= ReadWrite {
			sys.touchedC[r] |= 1 << sys.copyIndex(t)
			// The granted bid left the task list: keep liveBids an exact
			// in-flight count so refilterTasks' shed check (liveBids <
			// remaining) stays tight for partially granted requests.
			sys.liveBids[r]--
		}
	}
	kept := 0
	for _, t := range next {
		r := t.req
		if remaining[r] > 0 {
			next[kept] = t
			kept++
		} else if b.fv != nil && b.reqs[r].Op <= ReadWrite {
			sys.liveBids[r]--
		}
	}
	next = next[:kept]
	sys.reads, sys.writes = reads, writes
	b.res.Metrics.GrantedBids += granted
	b.res.Metrics.CopyAccesses += consumed
	return next
}

// commitCells performs the physical copy accesses decide queued: against the
// local store, or by consuming the remote module's replies when the transport
// keeps the cells on the far side (the remote already applied the writes and
// repair writes, a read-write's after reading the cell). Quorum rule: among
// the copies read, the one with the newest timestamp holds the variable's
// current value; timestamps compare with >= so the zero-initialized state is
// well-defined too. Reads go before writes, so a ReadWrite reads its copy's
// value from before the batch. A repair write installs its request's best
// cell put-if-newer.
func (sys *System) commitCells() {
	best := sys.best
	if rs := sys.rs; rs != nil {
		for _, g := range sys.reads {
			if val, ts := rs.GrantData(g.pos); ts >= best[g.req].TS {
				best[g.req] = cellstore.Cell{Val: val, TS: ts}
			}
		}
		return
	}
	st := sys.store
	for _, g := range sys.reads {
		if c := st.Get(g.addr); c.TS >= best[g.req].TS {
			best[g.req] = c
		}
	}
	for _, w := range sys.writes {
		st.Put(w.addr, cellstore.Cell{Val: w.val, TS: sys.ts})
	}
	for _, g := range sys.repairs {
		st.PutIfNewer(g.addr, best[g.req])
	}
}

// abandon turns bids the iteration bound left over into casualties (only
// possible when modules are failing): queued for a retry pass when a fault
// view is available, reported as unfinished otherwise. Completed reads
// deliver their value at the end of the batch (access).
func (sys *System) abandon(b *batch, left []task) {
	if b.fv != nil {
		for _, t := range left {
			sys.queueRetry(t.req)
		}
		return
	}
	// stalled is otherwise the fault layer's; here it marks the requests
	// already reported (one may have several bids left).
	met := &b.res.Metrics
	sys.stalled = grow(sys.stalled, len(b.reqs))
	clear(sys.stalled)
	for _, t := range left {
		if r := t.req; !sys.stalled[r] {
			sys.stalled[r] = true
			met.Unfinished = append(met.Unfinished, int(r))
		}
	}
}

// report closes the batch: it takes the interconnect cost, tells the
// observer, gives the background repair its per-batch step and turns
// unfinished requests into the batch's error.
func (sys *System) report(b *batch) error {
	res := b.res
	res.Metrics.InterconnectCost = sys.machine.Cost() - sys.machineCost
	sys.observeBatch(b.reqs, res)
	if sys.rv != nil && sys.repairBudget >= 0 && sys.fv.Snapshot().RepairCount() > 0 {
		// Per-flush repair budget: one bounded background-repair step rides
		// on every batch, so sustained traffic still drains the backlog.
		// Runs after InterconnectCost is taken — repair rounds are accounted
		// through obs.RepairEvent, not the batch's books.
		sys.pumpRepair(res)
	}
	if len(res.Metrics.Stranded) > 0 {
		return sys.quorumError(b)
	}
	if len(res.Metrics.Unfinished) > 0 {
		return fmt.Errorf("%w: %d of %d requests could not reach a quorum",
			ErrIncomplete, len(res.Metrics.Unfinished), len(b.reqs))
	}
	return nil
}

// observeBatch reports the finished batch to the configured observer, if
// any. The event is assembled by value, so the happy path stays
// allocation-free.
func (sys *System) observeBatch(reqs []Request, res *Result) {
	if sys.cfg.Observer == nil {
		return
	}
	failed := 0
	if sys.fv != nil {
		failed = sys.fv.Snapshot().Count()
	}
	sys.cfg.Observer.ObserveBatch(obs.BatchEvent{
		Requests:      len(reqs),
		Phases:        res.Metrics.Phases,
		Rounds:        res.Metrics.TotalRounds,
		MaxPhi:        res.Metrics.MaxIterations,
		CopyAccesses:  res.Metrics.CopyAccesses,
		GrantedBids:   res.Metrics.GrantedBids,
		IssuedBids:    res.Metrics.IssuedBids,
		Unfinished:    len(res.Metrics.Unfinished),
		RetriedBids:   res.Metrics.RetriedBids,
		Stranded:      len(res.Metrics.Stranded),
		FailedModules: failed,
	})
}

// buildMachine builds the System's one machine — the configured NewMachine or
// Transport, or the plain MPC — with machineProcs processors and N modules,
// and reads off the views it offers: fault, repair, remote store, and the
// in-process MPC firstRound plays on. A local machine gets its cell store
// with it.
func (sys *System) buildMachine() error {
	mcfg := mpc.Config{
		Procs:    sys.machineProcs,
		Modules:  int(sys.Mapper.NumModules()),
		Recorder: sys.cfg.Recorder,
	}
	var machine Machine
	var err error
	switch {
	case sys.cfg.NewMachine != nil:
		machine, err = sys.cfg.NewMachine(mcfg)
	case sys.cfg.Transport != nil:
		machine, err = sys.cfg.Transport.NewMachine(mcfg)
	default:
		machine, err = mpc.New(mcfg)
	}
	if err != nil {
		return err
	}
	sys.machine = machine
	sys.fv, _ = machine.(FaultView)
	sys.rs, _ = machine.(RemoteStore)
	sys.rv, _ = machine.(RepairView)
	if sys.nCopies <= 64 { // firstRound marks a row's copies in one word
		switch m := machine.(type) {
		case *mpc.Machine:
			sys.inPlace = m
		case *mpc.Failing:
			sys.inPlace = m.InPlace()
		}
	}
	if sys.rs == nil {
		sys.cells()
	}
	return nil
}

// cells returns the local cell store, allocating it on first use.
func (sys *System) cells() *cellstore.Store {
	if sys.store == nil {
		sys.store = cellstore.New(sys.Mapper.AddrSpace())
	}
	return sys.store
}

// convert builds the wrapper scratch request slice for vars. vals is nil
// for reads.
func (sys *System) convert(vars []uint64, vals []uint64, op Op) []Request {
	reqs := grow(sys.convReqs, len(vars))
	sys.convReqs = reqs
	for i, v := range vars {
		r := Request{Var: v, Op: op}
		if vals != nil {
			r.Value = vals[i]
		}
		reqs[i] = r
	}
	return reqs
}

// ReadBatch is a convenience wrapper issuing a read-only batch through the
// allocation-free AccessInto path. On ErrIncomplete the partial values and
// metrics are still returned.
//
// The returned values and metrics alias buffers the system reuses: they are
// valid until the next batch call (Access, AccessInto, ReadBatch,
// WriteBatch) on this system. Copy them to hold them longer.
func (sys *System) ReadBatch(vars []uint64) ([]uint64, *Metrics, error) {
	reqs := sys.convert(vars, nil, Read)
	err := sys.AccessInto(reqs, &sys.convRes)
	if err != nil && !errors.Is(err, ErrIncomplete) {
		return nil, nil, err
	}
	return sys.convRes.Values, &sys.convRes.Metrics, err
}

// WriteBatch is a convenience wrapper issuing a write-only batch through
// the allocation-free AccessInto path. The returned metrics alias a reused
// buffer: valid until the next batch call on this system.
func (sys *System) WriteBatch(vars []uint64, vals []uint64) (*Metrics, error) {
	if len(vars) != len(vals) {
		return nil, fmt.Errorf("protocol: %d vars but %d values", len(vars), len(vals))
	}
	reqs := sys.convert(vars, vals, Write)
	err := sys.AccessInto(reqs, &sys.convRes)
	if err != nil && !errors.Is(err, ErrIncomplete) {
		return nil, err
	}
	return &sys.convRes.Metrics, err
}

// CopyState reports, for invariant tests, the timestamps of all copies of a
// variable.
func (sys *System) CopyState(v uint64) []uint64 {
	out := make([]uint64, sys.Mapper.Copies())
	for c := range out {
		_, addr := sys.Mapper.CopyAddr(v, c)
		out[c] = sys.cells().Get(addr).TS
	}
	return out
}
