package frontend

import (
	"errors"
	"testing"

	"detshmem/internal/protocol"
)

// TestCompleteAttribution unit-tests the per-request verdicts in
// Pending.Complete deterministically: a partially-failed batch completes its
// healthy futures with their values, fails iteration-budget casualties with
// the batch's ErrIncomplete-class error, and fails quorum-less requests with
// ErrQuorumUnreachable — including writers and forwarded readers riding a
// failed write.
func TestCompleteAttribution(t *testing.T) {
	p := NewPending(8)
	readOK := new(Future)
	readStuck := new(Future)
	writeStranded := new(Future)
	fwdStranded := new(Future)
	p.Read(1, 10, readOK)            // request 0: completes
	p.Read(2, 11, readStuck)         // request 1: unfinished, budget verdict
	p.Write(3, 12, 7, writeStranded) // request 2: stranded, quorum verdict
	p.Read(4, 12, fwdStranded)       // forwarded off the stranded write

	res := &protocol.Result{Values: []uint64{42, 0, 0}}
	res.Metrics.Unfinished = []int{1, 2}
	res.Metrics.Stranded = []int{2}
	batchErr := protocol.ErrQuorumUnreachable
	p.Complete(res, batchErr)

	if v, err := readOK.Result(); err != nil || v != 42 {
		t.Fatalf("healthy read in degraded batch: %d, %v", v, err)
	}
	if _, err := readStuck.Result(); !errors.Is(err, protocol.ErrIncomplete) || errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("budget casualty verdict: %v", err)
	}
	if _, err := writeStranded.Result(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("stranded write verdict: %v", err)
	}
	if _, err := fwdStranded.Result(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("forwarded read riding a stranded write: %v", err)
	}
}
