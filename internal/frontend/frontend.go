// Package frontend bridges the paper's synchronous batch protocol to
// asynchronous concurrent traffic: protocol.System.Access serves one batch
// of pairwise-distinct variables and is not safe for concurrent use, while
// real clients are many goroutines issuing reads and writes whenever they
// like, often to the same hot variables.
//
// The Frontend is a request-combining service in the tradition of combining
// networks (and of the CRCW read/write combining already in internal/pram):
// clients submit operations on futures; a single dispatcher goroutine admits
// them in arrival order — that admission order is the commit order — and
// coalesces them into EREW-legal batches:
//
//   - reads of the same variable share one protocol Read request and all
//     receive its value (read combining);
//   - writes to the same variable collapse into the latest one, earlier
//     writers completing as overwritten (last-writer-wins coalescing);
//   - a read admitted after a write to the same variable in the same batch
//     is served the pending write's value directly and consumes no protocol
//     request at all (read-after-write forwarding);
//   - a write admitted after an issued read of the same variable cannot
//     join the batch (the variable would appear twice), so the batch is
//     flushed first — reads admitted earlier keep seeing the old value.
//
// A batch is flushed when it reaches MaxBatch distinct variables, when the
// submission queue runs dry (so latency stays bounded without timers), or on
// an explicit Flush. The bounded submission queue applies backpressure:
// submitters block when the dispatcher falls behind.
//
// Because one goroutine assigns commit sequence numbers and batches are
// applied in order, the service is linearizable: the differential stress
// test replays every operation in sequence order against a plain map and
// demands identical read values.
package frontend

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// Backend is the synchronous batch engine the frontend serializes access
// to. *protocol.System is the canonical implementation; tests substitute
// fakes.
type Backend interface {
	Access(reqs []protocol.Request) (*protocol.Result, error)
}

// BatchBackend is the allocation-free flush path: backends that also
// implement it (as *protocol.System does) are driven through AccessInto
// with a request buffer and Result reused across flushes, so a steady
// stream of batches allocates nothing in the dispatcher's hot loop.
type BatchBackend interface {
	AccessInto(reqs []protocol.Request, res *protocol.Result) error
}

// RepairBackend is the optional self-healing hook: backends that expose a
// repair backlog (as *protocol.System does) get it pumped from the
// dispatcher's idle slack, so recovered modules rebuild even when no client
// traffic is flowing to piggyback repair rounds on.
type RepairBackend interface {
	RepairBacklog() int
	RepairStep() bool
}

// ErrClosed is returned by operations submitted after Close.
var ErrClosed = errors.New("frontend: closed")

// Config tunes the frontend.
type Config struct {
	// MaxBatch is the flush threshold in distinct variables. 0 defaults to
	// the backend's module count N when the backend is a *protocol.System
	// (the largest batch the protocol accepts, so New rejects more);
	// otherwise it must be set.
	MaxBatch int
	// QueueCap bounds the submission queue; submitters block (backpressure)
	// when it is full. 0 defaults to 4×MaxBatch.
	QueueCap int
	// Collector, when non-nil, receives the dispatcher-side observability:
	// queue-depth samples at admission and flush-cause counts. Batch-level
	// protocol metrics flow through the backend's own instrumentation
	// (protocol.Config.Observer / Recorder), typically the same collector.
	Collector *obs.Collector
	// Auditor, when non-nil, observes every committed operation in commit
	// order (the sampling consistency audit). Called only from the
	// dispatcher goroutine.
	Auditor Auditor
}

// Frontend is the combining service. All methods are safe for concurrent
// use by any number of goroutines.
type Frontend struct {
	backend Backend
	batch   BatchBackend  // non-nil when backend supports the reuse path
	repair  RepairBackend // non-nil when backend exposes a repair backlog
	cfg     Config

	ops chan op

	// Dispatcher-only flush scratch, reused across batches.
	reqs []protocol.Request
	res  protocol.Result

	mu     sync.RWMutex // guards closed against in-flight submits
	closed bool

	doneOnce sync.Once
	done     chan struct{} // dispatcher exited

	statsMu sync.Mutex
	stats   Stats
}

// Future is the handle for one submitted operation. Wait blocks until the
// operation's batch has committed (or failed) and returns the read value
// (zero for writes) and any error.
//
// The completion channel is created lazily, and only by a waiter that
// arrives while the operation is still in flight. Windowed clients wait on
// their futures after the whole window is submitted, so most futures
// complete before anyone waits and never allocate a channel — on the hot
// path that halves the allocations per operation.
type Future struct {
	state atomic.Uint32 // 0 = pending, 1 = complete
	mu    sync.Mutex    // guards lazy done creation against complete
	done  chan struct{}
	val   uint64
	err   error
	seq   uint64
}

// Wait blocks until the operation committed.
func (f *Future) Wait() (uint64, error) {
	f.wait()
	return f.val, f.err
}

// Seq is the operation's global commit sequence number, assigned at
// admission. It is valid only after Wait returns: operations with smaller
// Seq committed before operations with larger Seq.
func (f *Future) Seq() uint64 {
	f.wait()
	return f.seq
}

func (f *Future) wait() {
	if f.state.Load() == 1 {
		return
	}
	f.mu.Lock()
	if f.state.Load() == 1 {
		f.mu.Unlock()
		return
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	ch := f.done
	f.mu.Unlock()
	<-ch
}

func (f *Future) complete(val uint64, err error) {
	f.val, f.err = val, err
	// The store is ordered after the payload writes; a waiter's fast-path
	// Load therefore observes them. The mutex pairs the store with any
	// concurrent lazy channel creation so no waiter parks unseen.
	f.mu.Lock()
	f.state.Store(1)
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opFlush
	opClose
)

type op struct {
	kind opKind
	v    uint64
	val  uint64
	fut  *Future
	ack  chan struct{} // opFlush / opClose acknowledgement
}

// New builds a frontend over a backend and starts its dispatcher.
func New(b Backend, cfg Config) (*Frontend, error) {
	if b == nil {
		return nil, fmt.Errorf("frontend: nil backend")
	}
	sys, isSys := b.(*protocol.System)
	if cfg.MaxBatch == 0 {
		if !isSys {
			return nil, fmt.Errorf("frontend: MaxBatch required for backend %T", b)
		}
		cfg.MaxBatch = int(sys.Mapper.NumModules())
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("frontend: MaxBatch %d must be positive", cfg.MaxBatch)
	}
	if isSys && uint64(cfg.MaxBatch) > sys.Mapper.NumModules() {
		return nil, fmt.Errorf("frontend: MaxBatch %d exceeds the %d modules (N) one protocol batch can address", cfg.MaxBatch, sys.Mapper.NumModules())
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 4 * cfg.MaxBatch
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("frontend: QueueCap %d must be positive", cfg.QueueCap)
	}
	f := &Frontend{
		backend: b,
		cfg:     cfg,
		ops:     make(chan op, cfg.QueueCap),
		done:    make(chan struct{}),
	}
	if bb, ok := b.(BatchBackend); ok {
		f.batch = bb
	}
	if rb, ok := b.(RepairBackend); ok {
		f.repair = rb
	}
	go f.dispatch()
	return f, nil
}

// Read submits a read and blocks until its batch commits.
func (f *Frontend) Read(v uint64) (uint64, error) {
	fut, err := f.ReadAsync(v)
	if err != nil {
		return 0, err
	}
	return fut.Wait()
}

// Write submits a write and blocks until its batch commits.
func (f *Frontend) Write(v, val uint64) error {
	fut, err := f.WriteAsync(v, val)
	if err != nil {
		return err
	}
	_, err = fut.Wait()
	return err
}

// ReadAsync submits a read and returns immediately with its future.
func (f *Frontend) ReadAsync(v uint64) (*Future, error) {
	fut := &Future{}
	if err := f.submit(op{kind: opRead, v: v, fut: fut}); err != nil {
		return nil, err
	}
	return fut, nil
}

// WriteAsync submits a write and returns immediately with its future.
func (f *Frontend) WriteAsync(v, val uint64) (*Future, error) {
	fut := &Future{}
	if err := f.submit(op{kind: opWrite, v: v, val: val, fut: fut}); err != nil {
		return nil, err
	}
	return fut, nil
}

// Flush forces the pending batch out and blocks until it has committed.
func (f *Frontend) Flush() error {
	ack := make(chan struct{})
	if err := f.submit(op{kind: opFlush, ack: ack}); err != nil {
		return err
	}
	<-ack
	return nil
}

// Close flushes pending work, stops the dispatcher, and fails all later
// submissions with ErrClosed. It is safe to call once; subsequent calls
// return ErrClosed.
func (f *Frontend) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.closed = true
	f.mu.Unlock()
	ack := make(chan struct{})
	f.ops <- op{kind: opClose, ack: ack}
	<-ack
	return nil
}

// submit enqueues one op, blocking while the queue is full. The read lock
// spans the send so Close cannot mark the frontend closed while a send is
// in flight (the dispatcher drains every op admitted before opClose).
func (f *Frontend) submit(o op) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	f.ops <- o
	return nil
}

// Stats returns a snapshot of the cumulative combining metrics.
func (f *Frontend) Stats() Stats {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	return f.stats
}

// dispatch is the single combining loop: admit in arrival order, flush on
// size, conflict, idleness, or explicit request. The coalescing rules and
// fan-out live in Pending (coalesce.go), shared with the shard dispatcher;
// flushes here are synchronous, so one Pending is reset and reused.
func (f *Frontend) dispatch() {
	defer close(f.done)
	p := NewPending(f.cfg.MaxBatch)
	var seq uint64
	for {
		var o op
		select {
		case o = <-f.ops:
		default:
			// Queue drained: commit what we have before blocking so no
			// client waits on an idle dispatcher.
			if p.Distinct() > 0 {
				f.flush(p, obs.FlushIdle)
			}
			o = f.nextIdle()
		}
		switch o.kind {
		case opRead, opWrite:
			seq++
			f.noteQueueDepth(len(f.ops))
			if o.kind == opWrite {
				if p.WriteConflicts(o.v) {
					// The variable already carries an issued read: commit the
					// batch; the write opens the next one.
					f.flush(p, obs.FlushConflict)
				}
				p.Write(seq, o.v, o.val, o.fut)
			} else {
				p.Read(seq, o.v, o.fut)
			}
			if p.Distinct() >= f.cfg.MaxBatch {
				f.flush(p, obs.FlushSize)
			}
		case opFlush:
			if p.Distinct() > 0 {
				f.flush(p, obs.FlushExplicit)
			}
			close(o.ack)
		case opClose:
			if p.Distinct() > 0 {
				f.flush(p, obs.FlushExplicit)
			}
			close(o.ack)
			return
		}
	}
}

// nextIdle blocks for the next operation. While the backend has repair work
// queued, the idle slack goes into pumping it — one repair round per poll of
// the submission queue, so an admitted operation is picked up within a
// round. A paused backlog (RepairStep false: repair is waiting for a fault
// to clear) falls through to a plain blocking receive rather than spinning.
func (f *Frontend) nextIdle() op {
	if f.repair != nil {
		for f.repair.RepairBacklog() > 0 {
			select {
			case o := <-f.ops:
				return o
			default:
			}
			if !f.repair.RepairStep() {
				break
			}
		}
	}
	return <-f.ops
}

// flush issues the batch's requests to the backend, accounts the batch
// (before any future completes — see Stats.Account), fans results out, and
// resets the batch for reuse. An ErrIncomplete-class error keeps res: the
// committed requests complete with their values and only the unfinished
// ones fail, each with its per-request verdict (see Pending.Complete).
func (f *Frontend) flush(p *Pending, cause obs.FlushCause) {
	f.reqs = p.Requests(f.reqs)
	var res *protocol.Result
	var err error
	if f.batch != nil {
		err = f.batch.AccessInto(f.reqs, &f.res)
		if err == nil || errors.Is(err, protocol.ErrIncomplete) {
			res = &f.res
		}
	} else {
		res, err = f.backend.Access(f.reqs)
	}

	f.statsMu.Lock()
	f.stats.Account(p, len(f.reqs), res, err, cause)
	f.statsMu.Unlock()
	if c := f.cfg.Collector; c != nil {
		c.ObserveFlush(cause)
	}
	if a := f.cfg.Auditor; a != nil {
		p.Audit(a, res, err)
	}

	p.Complete(res, err)
	p.Reset()
}

func (f *Frontend) noteQueueDepth(depth int) {
	f.statsMu.Lock()
	if depth > f.stats.MaxQueueDepth {
		f.stats.MaxQueueDepth = depth
	}
	f.statsMu.Unlock()
	if c := f.cfg.Collector; c != nil {
		c.ObserveQueueDepth(depth)
	}
}
