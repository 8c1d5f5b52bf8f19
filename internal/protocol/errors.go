package protocol

import (
	"errors"
	"fmt"
)

// Batch admission errors. Access wraps each of these in a detailed message
// (via errorf), so callers — in particular the combining front-end in
// internal/frontend — branch on them with errors.Is while the human-readable
// text stays unchanged.
var (
	// ErrBatchTooLarge is returned when a batch holds more requests than the
	// machine has modules (the protocol serves at most N requests per batch).
	ErrBatchTooLarge = errors.New("protocol: batch too large")
	// ErrDuplicateVar is returned when two requests in one batch name the
	// same variable (the paper's EREW-style distinctness assumption).
	ErrDuplicateVar = errors.New("protocol: duplicate variable in batch")
	// ErrVarOutOfRange is returned when a request names a variable index
	// at or beyond the Mapper's NumVars.
	ErrVarOutOfRange = errors.New("protocol: variable out of range")
)

// ErrIncomplete is wrapped by Access when some requests could not reach
// their quorum within the iteration bound (failure injection). The returned
// Result is still valid for the completed requests.
var ErrIncomplete = errIncomplete{}

type errIncomplete struct{}

func (errIncomplete) Error() string { return "protocol: quorum unreachable" }

// ErrQuorumUnreachable is the stronger per-request verdict under the runtime
// fault layer: the request's variable has fewer live copies than its quorum,
// so no amount of retrying can serve it until a module recovers. It unwraps
// to ErrIncomplete, so existing errors.Is(err, ErrIncomplete) handling keeps
// working; callers that care about the distinction (the frontend hands it to
// exactly the stranded futures) test for this sentinel first.
//
// Requests that merely exhausted the iteration bound while their variable
// still had a live quorum keep plain ErrIncomplete. Batch-level: Access
// wraps ErrQuorumUnreachable when at least one request is provably stranded
// (Metrics.Stranded non-empty), ErrIncomplete otherwise.
var ErrQuorumUnreachable = errQuorumUnreachable{}

type errQuorumUnreachable struct{}

func (errQuorumUnreachable) Error() string {
	return "protocol: live copies below quorum"
}

func (errQuorumUnreachable) Unwrap() error { return ErrIncomplete }

// wrappedError pairs a sentinel with a fully formatted message: Error()
// reports only the message (keeping historical text intact), while Unwrap
// exposes the sentinel to errors.Is.
type wrappedError struct {
	sentinel error
	msg      string
}

func (e wrappedError) Error() string { return e.msg }
func (e wrappedError) Unwrap() error { return e.sentinel }

// errorf builds a wrappedError with a printf-style message.
func errorf(sentinel error, format string, args ...interface{}) error {
	return wrappedError{sentinel: sentinel, msg: fmt.Sprintf(format, args...)}
}

// QuorumError is the batch-level ErrQuorumUnreachable, naming what stranded
// the batch: the first stranded request's variable, the modules of its copy
// set Γ(v), and which of those were failed or under repair when the batch
// gave up. errors.Is(err, ErrQuorumUnreachable) (and ErrIncomplete) hold;
// errors.As recovers the detail. It is built only on the failure path.
type QuorumError struct {
	Var       uint64   // variable of the first stranded request (Metrics.Stranded[0])
	Modules   []uint64 // modules of the variable's copies, in copy order
	Failed    []uint64 // the subset that was failed
	Repairing []uint64 // the subset that was recovered but not yet rebuilt
	// Batch-level counts: requests that could not reach a quorum, those
	// provably below their live majority, and the batch size.
	Unfinished, Stranded, Requests int
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("%v: %d of %d requests could not reach a quorum (%d below their live majority); first: variable %d with copies on modules %v, failed %v, repairing %v",
		ErrQuorumUnreachable, e.Unfinished, e.Requests, e.Stranded, e.Var, e.Modules, e.Failed, e.Repairing)
}

// Unwrap exposes the sentinel, and through it ErrIncomplete.
func (e *QuorumError) Unwrap() error { return ErrQuorumUnreachable }

// quorumError builds the batch's QuorumError from its first stranded request.
func (sys *System) quorumError(b *batch) error {
	met := &b.res.Metrics
	r := met.Stranded[0]
	e := &QuorumError{
		Var:        b.reqs[r].Var,
		Unfinished: len(met.Unfinished), Stranded: len(met.Stranded), Requests: len(b.reqs),
	}
	st := b.fv.Snapshot()
	for _, cp := range sys.row(r) {
		m := cp.module()
		e.Modules = append(e.Modules, uint64(m))
		switch {
		case st.Failed(uint64(m)):
			e.Failed = append(e.Failed, uint64(m))
		case sys.rv != nil && st.Repairing(uint64(m)):
			e.Repairing = append(e.Repairing, uint64(m))
		}
	}
	return e
}
