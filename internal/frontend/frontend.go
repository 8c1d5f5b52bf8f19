// Package frontend is the combining library of the serving path: the rules
// that turn a stream of concurrent client operations into the batches of
// pairwise-distinct variables the protocol serves, and the result cells and
// counters that go with them. It runs no goroutine, owns no queue and
// publishes no completion — the one dispatcher is internal/shard's queue
// flusher, which admits the ops of each AccessBatch sub-batch into a Pending
// in queue order (admission order is commit order), flushes it through the
// protocol, and only then tells the waiting Batch, once per sub-batch. A
// zero-value Future is ready to use, and the shard keeps each op's Future
// beside the op inside its Batch. The tradition is that of combining
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
//   - a write admitted after an issued read of the same variable turns that
//     read into one protocol.ReadWrite request (write-after-read upgrade):
//     the protocol reads a quorum of copies and overwrites the same quorum
//     at the batch's timestamp, so the reads admitted before the write get
//     the value from before the batch, and the write's value is forwarded to
//     the reads after it, as above. A read-write that fails fails every op
//     on its variable, the reads it carried included; one whose read alone
//     was refused (protocol.Metrics.ReadRefused, a repairing copy barred it)
//     fails only the reads admitted before the write.
//
// The batch a Pending builds is a protocol.DistinctBatch: the index that
// finds the request an op combines with is the one that keeps the batch
// distinct, so the flush hands it to protocol.System.AccessDistinctInto
// as it stands. Complete writes a flushed batch's result into every
// admitted op's Future, attributing a degraded batch's errors per request; Stats
// is the dispatcher's one book — what combining saved, as admission counted
// it, why each batch was flushed, how deep the queue grew — while protocol
// facts belong to the protocol's Observer and Recorder. Because one
// goroutine assigns commit sequence numbers and batches are applied in
// order, combining is invisible to clients: shard's differential oracle
// replays every operation in sequence order against a plain map and demands
// identical read values.
package frontend

import "errors"

// ErrClosed is returned by operations submitted after the service closed.
var ErrClosed = errors.New("frontend: closed")

// Future is the result cell of one submitted operation: the value read (zero
// for writes), its error and its commit sequence number. It holds no
// synchronization. Pending and Fail write it with plain stores on the
// dispatcher's goroutine, and the cell's owner — shard.Batch — publishes
// completion for a whole sub-batch at once; Result and Seq are valid only
// after that publication.
type Future struct {
	val uint64
	err error
	seq uint64
}

// Result returns the operation's read value (zero for writes) and error.
func (f *Future) Result() (uint64, error) { return f.val, f.err }

// Seq is the operation's commit sequence number, assigned at admission:
// operations with smaller Seq committed before operations with larger Seq.
func (f *Future) Seq() uint64 { return f.seq }

func (f *Future) complete(val uint64, err error) { f.val, f.err = val, err }

// Fail completes an operation that never entered a batch with err. The
// dispatcher refuses such an operation on its own — it gets no commit
// sequence number, Seq reads 0 — so the operations coalescing around it are
// untouched.
func (f *Future) Fail(err error) { f.complete(0, err) }
