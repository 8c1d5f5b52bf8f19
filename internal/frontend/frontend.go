// Package frontend is the combining library of the serving path: the rules
// that turn a stream of concurrent client operations into the batches of
// pairwise-distinct variables the protocol serves, and the futures and
// counters that go with them. It runs no goroutine and owns no
// queue — the one dispatcher is internal/shard's ring flusher, which admits
// the ops of each AccessBatch sub-batch into a Pending in ring order
// (admission order is commit order) and flushes it through the protocol.
// It mints no futures either: a zero-value Future is ready to use, and the
// shard keeps each op's Future beside the op inside its Batch. The tradition is that of combining
// networks, and of the CRCW read/write combining in internal/pram.
//
// A Pending coalesces the operations admitted since the last flush into an
// EREW-legal batch:
//
//   - reads of the same variable share one protocol Read request and all
//     receive its value (read combining);
//   - writes to the same variable collapse into the latest one, earlier
//     writers completing as overwritten (last-writer-wins coalescing);
//   - a read admitted after a write to the same variable in the same batch
//     is served the pending write's value directly and consumes no protocol
//     request at all (read-after-write forwarding);
//   - a write admitted after an issued read of the same variable cannot
//     join the batch (the variable would appear twice), so Write refuses it
//     and the dispatcher flushes first — reads admitted earlier keep seeing
//     the old value.
//
// The batch a Pending builds is a protocol.DistinctBatch: the index that
// finds the request an op combines with is the one that keeps the batch
// distinct, so the flush hands it to protocol.System.AccessDistinctInto
// as it stands. Complete fans a flushed batch's result out to every combined
// waiter's Future, attributing a degraded batch's errors per request; Stats
// counts what combining saved, as admission counted it. Because one
// goroutine assigns commit sequence numbers and batches are applied in
// order, combining is invisible to clients: shard's differential oracle
// replays every operation in sequence order against a plain map and demands
// identical read values.
package frontend

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations submitted after the service closed.
var ErrClosed = errors.New("frontend: closed")

// Future is the handle for one submitted operation. Wait blocks until the
// operation's batch has committed (or failed) and returns the read value
// (zero for writes) and any error.
//
// Completion is one compare-and-swap: state moves from pending to complete
// and nothing else happens, unless a waiter got there first. A waiter that
// arrives while the operation is still in flight creates the completion
// channel under the mutex and only then moves the state from pending to
// waited; complete, finding waited, closes the channel. Windowed clients wait
// on their futures after the whole window is submitted, so most futures
// complete before anyone waits, never allocate a channel and never touch the
// mutex.
type Future struct {
	state atomic.Uint32 // futurePending, futureDone or futureWaited
	mu    sync.Mutex    // serializes waiters creating done; complete never takes it
	done  chan struct{}
	val   uint64
	err   error
	seq   uint64
	// next links the futures waiting on one request of a Pending batch;
	// only the flusher touches it, and it is nil again before complete.
	next *Future
}

// Future states. The only moves are pending → done (complete, no waiter),
// pending → waited (the first waiter to park) and waited → done (complete).
const (
	futurePending uint32 = iota
	futureDone
	futureWaited
)

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
	if f.state.Load() == futureDone {
		return
	}
	f.mu.Lock()
	if f.state.Load() == futureDone {
		f.mu.Unlock()
		return
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	ch := f.done
	// done is published before the state says waited, so a complete that
	// finds waited finds the channel. The swap fails only when complete won
	// the race (or another waiter already moved the state).
	parked := f.state.CompareAndSwap(futurePending, futureWaited) || f.state.Load() == futureWaited
	f.mu.Unlock()
	if parked {
		<-ch
	}
}

func (f *Future) complete(val uint64, err error) {
	f.val, f.err = val, err
	// The payload writes are ordered before the state change, so a waiter
	// that observes futureDone — or receives from the closed channel —
	// observes them.
	if f.state.CompareAndSwap(futurePending, futureDone) {
		return
	}
	// A waiter parked, and published done before it moved the state.
	if f.state.Swap(futureDone) == futureWaited {
		close(f.done)
	}
}

// Fail completes an operation that never entered a batch with err. The
// dispatcher refuses such an operation on its own — it gets no commit
// sequence number, Seq reads 0 — so the operations coalescing around it are
// untouched.
func (f *Future) Fail(err error) { f.complete(0, err) }
