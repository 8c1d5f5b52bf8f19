// Package shard is the concurrent serving layer over the paper's batch
// protocol: protocol.System.AccessInto serves one batch of pairwise-distinct
// variables and is not safe for concurrent use, while real clients are many
// goroutines issuing reads and writes whenever they like, often to the same
// hot variables. A Service turns the one into the other. PP93's scheme is
// embarrassingly parallel across disjoint variable sets — any partition of
// the M variables can be served by independent MPC instances — so the
// Service partitions the variable space over S independent protocol.System
// instances (each with its own MPC machine, all sharing one cell store and,
// when the table fits, one compiled resolver) behind a stateless router:
// every operation on variable v goes to shard Route(v). New(m, Config{}) is
// the single-shard combining service.
//
// # Consistency contract
//
// The Service is linearizable per variable, not across variables. All
// operations on one variable land on the same shard, whose dispatcher
// serializes them — admission order is commit order — so a read always
// observes the latest committed write of the same variable, and Batch.Seq
// orders operations within a shard. At S=1 that is a total order over every
// operation. Operations on different variables that route to different
// shards have no mutual order: there is no cross-shard commit sequence,
// which is the price of scaling. Programs needing a cross-variable
// happens-before must either keep the variables on one shard (S=1) or
// synchronize externally. The differential oracle test replays each shard's
// commit sequence independently.
//
// # Dispatch
//
// Each shard runs one dispatcher (dispatch.go): clients admit entries — one
// AccessBatch sub-batch each; Read and Write are one-op batches — into a
// bounded FIFO queue (queue.go) with one locked append — no per-op channel
// hop — while the shard's flusher goroutine, the queue's single consumer,
// takes the whole queue per sweep, coalesces its operations into the
// accumulating batch by internal/frontend's combining rules — straight into
// the protocol.DistinctBatch whose index is both the combining lookup and
// the duplicate check — and hands sealed batches to the backend's
// allocation-free AccessDistinctInto. A batch is flushed when it reaches N
// distinct variables (FlushSize), when the queue runs dry (FlushIdle, so
// latency stays bounded without timers), or on an explicit Flush or Close
// (FlushExplicit). A write that meets an issued read of its variable joins
// the read as one ReadWrite request, so it flushes nothing. The queue is
// bounded in entries: admission waits on a condition variable while it is
// full.
//
// # Cross-shard batches
//
// AccessBatch (batch.go) submits one client batch spanning any number of
// shards with one synchronization per touched shard: the ops are copied and
// partitioned by Route once, each shard's sub-batch is one queue entry
// admitted with a single locked append, and the caller waits on one Batch
// handle.
package shard

import (
	"fmt"

	"detshmem/internal/cellstore"
	"detshmem/internal/frontend"
	"detshmem/internal/protocol"
)

// Config tunes the sharded service.
type Config struct {
	// Shards is S, the number of independent protocol systems. 0 defaults
	// to 1.
	Shards int
	// Pipeline is never read.
	//
	// Deprecated: it used to choose between two dispatchers; the one it
	// selected is the only one. The field is still declared because the
	// frozen benchmark suite (bench/stack.go) sets it, and goes with the
	// benchmark PR that drops that mention.
	Pipeline bool
	// Protocol is the template for every shard's system. If its Resolver is
	// nil and its Strategy the zero value, the mapper's size decides
	// (protocol.TableFits): one table is compiled and shared by all shards
	// when it fits, and the shards resolve through the computed kernels when
	// it does not. Its Observer and Recorder are installed on every shard,
	// so they are called from every shard's flusher at once and must be
	// safe for concurrent use (obs.Collector and obs.Tracer are): they are
	// the service's one book of protocol facts, while Service.Stats is its
	// one book of dispatcher facts.
	Protocol protocol.Config
	// Transport, when non-nil, supplies each shard's MPC transport: shard
	// i's system is built over Transport(i), overriding Protocol.Transport;
	// internal/stack sets it only to wrap each shard's transport for timing.
	// Shards are independent systems with independent timestamp streams, so
	// shards sharing one server cluster would each need their own namespace
	// on it (for netmpc, a distinct StoreID); internal/stack therefore runs
	// a netmpc transport under one shard only. The caller owns the returned
	// transports' lifetimes — close them after the service.
	Transport func(shard int) protocol.Transport

	// maxBatch is the per-shard flush threshold in distinct variables: the
	// mapper's module count N, the largest batch the protocol accepts. Only
	// tests lower it. The admission queue holds 3×maxBatch entries, clamped
	// to [64, 4096]; an entry is one AccessBatch sub-batch (a blocking Read
	// or Write is a one-op batch), so Stats.MaxQueueDepth counts entries too.
	maxBatch int
}

// Service is the sharded combining service. All methods are safe for
// concurrent use.
type Service struct {
	shards []*shardState
}

type shardState struct {
	sys *protocol.System
	d   *pipeDispatcher
}

// New builds a sharded service over one memory organization. Every shard
// gets its own protocol.System (own MPC machine, own timestamps) over the
// same mapper, and all of them keep their cells in one store: the paper's N
// memory modules, which hold each copy once. The router keeps the shards'
// cells disjoint — a cell is one copy of one variable, and each variable has
// one shard — so they share the store without a lock (package cellstore).
// With cfg.Protocol.Resolver nil and the zero-value Strategy, a mapper whose
// table fits (protocol.TableFits) is compiled here once and the table shared
// by all shards; a larger one, a baseline mapper (which has no table), or
// Strategy ResolverComputed gets table-free systems.
func New(m protocol.Mapper, cfg Config) (*Service, error) {
	if m == nil {
		return nil, fmt.Errorf("shard: nil mapper")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > 4096 {
		return nil, fmt.Errorf("shard: Shards %d out of range [1, 4096]", cfg.Shards)
	}
	if cfg.maxBatch == 0 {
		cfg.maxBatch = int(m.NumModules())
	}
	if cfg.maxBatch < 1 {
		return nil, fmt.Errorf("shard: maxBatch %d must be positive", cfg.maxBatch)
	}
	if uint64(cfg.maxBatch) > m.NumModules() {
		return nil, fmt.Errorf("shard: maxBatch %d exceeds the %d modules (N) one protocol batch can address", cfg.maxBatch, m.NumModules())
	}
	// Three batches' worth of one-op entries: one flushing, one sealed,
	// one accumulating.
	queueCap := min(max(3*cfg.maxBatch, 64), 4096)
	pcfg := cfg.Protocol
	if pcfg.Strategy == protocol.ResolverAuto && pcfg.Resolver == nil && protocol.TableFits(m) {
		r, err := protocol.CompileMapper(m, protocol.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("shard: compiling resolver: %w", err)
		}
		pcfg.Resolver = r
	}
	if pcfg.Cells == nil {
		pcfg.Cells = cellstore.New(m.AddrSpace())
	}
	s := &Service{shards: make([]*shardState, cfg.Shards)}
	for i := range s.shards {
		scfg := pcfg
		if shards := cfg.Shards; shards > 1 {
			// Each shard's repair sweep rebuilds only the variables routed to
			// it; the others never touch their cells.
			scfg.Owns = func(v uint64) bool { return route(v, shards) == i }
		}
		if cfg.Transport != nil {
			scfg.Transport = cfg.Transport(i)
		}
		sys, err := protocol.NewGenericSystem(m, scfg)
		if err != nil {
			for _, st := range s.shards[:i] {
				_ = st.d.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = &shardState{sys: sys, d: newPipeDispatcher(sys, m.NumVars(), cfg.maxBatch, queueCap)}
	}
	return s, nil
}

// Shards returns S.
func (s *Service) Shards() int { return len(s.shards) }

// Route maps a variable to its shard. The mix is the splitmix64 finalizer —
// a fixed bijective mixer, so routing is deterministic, identical across
// processes and runs, and trivially stable (same v, same shard) — reduced
// mod S. Hashing rather than taking v mod S directly keeps structured
// variable patterns (strides, hot prefixes) from piling onto one shard.
func (s *Service) Route(v uint64) int { return route(v, len(s.shards)) }

func route(v uint64, shards int) int {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int(v % uint64(shards))
}

// Read submits a read and blocks until its batch commits. It is a one-op
// AccessBatch: the same queue entry, the same admission order.
func (s *Service) Read(v uint64) (uint64, error) {
	return s.one(BatchOp{Var: v})
}

// Write submits a write and blocks until its batch commits.
func (s *Service) Write(v, val uint64) error {
	_, err := s.one(BatchOp{Write: true, Var: v, Val: val})
	return err
}

// one admits op as a one-op batch on its variable's shard and waits for it.
// The Batch and its one op are a single allocation.
func (s *Service) one(op BatchOp) (uint64, error) {
	o := &struct {
		b   Batch
		ops [1]batchOp
	}{}
	o.ops[0].set(op)
	o.b.ops = o.ops[:]
	o.b.done.Add(1)
	if err := s.shards[s.Route(op.Var)].d.queue.enqueueBatch(&o.b, 0, 1); err != nil {
		return 0, err
	}
	return o.b.Value(0)
}

// Flush forces every shard's pending batch out and blocks until all have
// committed.
func (s *Service) Flush() error {
	var first error
	for _, st := range s.shards {
		if err := st.d.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes pending work on every shard and stops the dispatchers. Later
// submissions fail with frontend.ErrClosed.
func (s *Service) Close() error {
	var first error
	for _, st := range s.shards {
		if err := st.d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats is the service's book of dispatcher facts: each shard's
// frontend.Stats plus their merge. Protocol facts are the Observer's and
// Recorder's in Config.Protocol.
type Stats struct {
	PerShard []frontend.Stats
	Total    frontend.Stats
}

// Imbalance is max/mean of per-shard committed operations — 1.0 is a
// perfectly even partition; S means everything landed on one shard. Zero
// when nothing committed.
func (st Stats) Imbalance() float64 {
	var sum, max int64
	for _, s := range st.PerShard {
		sum += s.OpsIn
		if s.OpsIn > max {
			max = s.OpsIn
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(st.PerShard))
	return float64(max) / mean
}

// Stats snapshots every shard's dispatcher.
func (s *Service) Stats() Stats {
	out := Stats{PerShard: make([]frontend.Stats, len(s.shards))}
	for i, st := range s.shards {
		out.PerShard[i] = st.d.Stats()
		out.Total.Merge(out.PerShard[i])
	}
	return out
}

// System returns shard i's protocol system (for tests and tools).
func (s *Service) System(i int) *protocol.System { return s.shards[i].sys }
