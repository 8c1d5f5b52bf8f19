package protocol

import (
	"errors"
	"strings"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
)

// Edge cases the combining frontend leans on: batch-boundary behaviour,
// typed admission errors and iteration-bound exhaustion.

func edgeSystem(t *testing.T, cfg Config) (*System, *core.Scheme) {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(s, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, s
}

// TestEmptyBatchNoWork: an empty batch (nil or zero-length) is a no-op
// that still returns a valid result and consumes no protocol work.
func TestEmptyBatchNoWork(t *testing.T) {
	sys, _ := edgeSystem(t, Config{})
	for _, reqs := range [][]Request{nil, {}} {
		res, err := sys.Access(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) != 0 {
			t.Fatalf("empty batch returned %d values", len(res.Values))
		}
		if res.Metrics.TotalRounds != 0 || res.Metrics.CopyAccesses != 0 {
			t.Fatalf("empty batch consumed work: %+v", res.Metrics)
		}
	}
}

// TestBatchOfExactlyN: the largest admissible batch (N requests) is served;
// one more is rejected with ErrBatchTooLarge.
func TestBatchOfExactlyN(t *testing.T) {
	sys, s := edgeSystem(t, Config{})
	n := int(s.NumModules)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Var: uint64(i), Op: Write, Value: uint64(i) + 7}
	}
	if _, err := sys.Access(reqs); err != nil {
		t.Fatalf("batch of exactly N=%d: %v", n, err)
	}
	for i := range reqs {
		reqs[i].Op = Read
	}
	res, err := sys.Access(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Values {
		if v != uint64(i)+7 {
			t.Fatalf("read %d = %d, want %d", i, v, uint64(i)+7)
		}
	}
	over := append(reqs, Request{Var: uint64(n), Op: Read})
	if _, err := sys.Access(over); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("batch of N+1: err = %v, want ErrBatchTooLarge", err)
	}
}

// TestTypedAdmissionErrors: the sentinels match via errors.Is and the
// messages keep their historical text.
func TestTypedAdmissionErrors(t *testing.T) {
	sys, s := edgeSystem(t, Config{})
	n := int(s.NumModules)

	over := make([]Request, n+1)
	for i := range over {
		over[i] = Request{Var: uint64(i), Op: Read}
	}
	_, err := sys.Access(over)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if want := "protocol: batch of 64 exceeds N = 63"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}

	_, err = sys.Access([]Request{{Var: s.NumVariables, Op: Read}})
	if !errors.Is(err, ErrVarOutOfRange) {
		t.Fatalf("err = %v, want ErrVarOutOfRange", err)
	}
	if want := "protocol: variable 84 out of range [0,84)"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}

	_, err = sys.Access([]Request{{Var: 3, Op: Read}, {Var: 3, Op: Write}})
	if !errors.Is(err, ErrDuplicateVar) {
		t.Fatalf("err = %v, want ErrDuplicateVar", err)
	}
	if want := "protocol: variable 3 requested twice in one batch"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}

	// The sentinels are mutually exclusive.
	if errors.Is(err, ErrBatchTooLarge) || errors.Is(err, ErrVarOutOfRange) || errors.Is(err, ErrIncomplete) {
		t.Fatal("duplicate-var error matches unrelated sentinels")
	}
}

// TestMaxIterationsExhaustion: a deliberately starved iteration bound on a
// fully colliding batch returns the quorum-unreachable error with the
// stragglers listed, while the served request still completes.
func TestMaxIterationsExhaustion(t *testing.T) {
	m, err := baseline.NewSingleCopy(64, 4096, baseline.PlaceInterleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewGenericSystem(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys.maxIter = 1
	batch := m.WorstBatch(16) // 16 variables, all in module 0
	reqs := make([]Request, len(batch))
	for i, v := range batch {
		reqs[i] = Request{Var: v, Op: Read}
	}
	res, err := sys.Access(reqs)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("message %q does not mention the quorum", err.Error())
	}
	if res == nil {
		t.Fatal("ErrIncomplete must still return the partial result")
	}
	// One grant per module per round: exactly one request finished.
	if got := len(res.Metrics.Unfinished); got != len(reqs)-1 {
		t.Fatalf("%d unfinished, want %d", got, len(reqs)-1)
	}
	// A generous bound on the same batch completes it.
	sys2, err := NewGenericSystem(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Access(reqs); err != nil {
		t.Fatalf("unbounded run failed: %v", err)
	}
}
