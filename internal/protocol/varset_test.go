package protocol

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// dupBatch is n reads of distinct variables spread over [0, numVars); with
// dup it repeats its first variable in the last request.
func dupBatch(n int, numVars uint64, dup bool) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Var: uint64(i) * (numVars / uint64(n)), Op: Read}
	}
	if dup {
		reqs[n-1].Var = reqs[0].Var
	}
	return reqs
}

// TestDuplicateCheckAcrossTableGrowth walks batch sizes across every
// power-of-two boundary of the check's table, growing and then shrinking, so
// each size runs once on a table it just outgrew and once on a table left
// over from a larger batch: a clean batch passes, the same batch with its
// last request repeating the first is rejected with the exact message, and
// neither leaves anything behind for the next.
func TestDuplicateCheckAcrossTableGrowth(t *testing.T) {
	sys := newSystem(t, 1, 5, Config{})
	numVars := sys.Mapper.NumVars()
	var sizes []int
	for p := 4; p <= 512; p <<= 1 {
		sizes = append(sizes, p-1, p, p+1)
	}
	for i := len(sizes) - 1; i >= 0; i-- {
		sizes = append(sizes, sizes[i])
	}
	var res Result
	for _, n := range sizes {
		if err := sys.AccessInto(dupBatch(n, numVars, false), &res); err != nil {
			t.Fatalf("clean batch of %d: %v", n, err)
		}
		err := sys.AccessInto(dupBatch(n, numVars, true), &res)
		if !errors.Is(err, ErrDuplicateVar) {
			t.Fatalf("batch of %d with a repeated variable: err = %v, want ErrDuplicateVar", n, err)
		}
		if want := "protocol: variable 0 requested twice in one batch"; err.Error() != want {
			t.Fatalf("message %q, want %q", err.Error(), want)
		}
	}
	err := sys.AccessInto([]Request{{Var: 1, Op: Read}, {Var: numVars, Op: Read}}, &res)
	if want := fmt.Sprintf("protocol: variable %d out of range [0,%d)", numVars, numVars); !errors.Is(err, ErrVarOutOfRange) || err.Error() != want {
		t.Fatalf("out-of-range variable: err = %v, want %q", err, want)
	}
}

// TestDuplicateCheckAcrossEpochWrap forces the set's epoch counter to its
// maximum and runs batches across the wrap: variables stamped before it must
// not read as present after it, and duplicates must still be caught.
func TestDuplicateCheckAcrossEpochWrap(t *testing.T) {
	sys := newSystem(t, 1, 5, Config{})
	numVars := sys.Mapper.NumVars()
	var res Result
	if err := sys.AccessInto(dupBatch(100, numVars, false), &res); err != nil {
		t.Fatal(err)
	}
	// Stamp every slot with epoch 1 — the first epoch after the wrap — as a
	// batch 2³² batches ago would have, so only the wrap's clear saves us.
	for i := range sys.seen.slots {
		sys.seen.slots[i].epoch = 1
	}
	sys.seen.epoch = math.MaxUint32 - 2
	for i := 0; i < 6; i++ {
		if err := sys.AccessInto(dupBatch(100, numVars, false), &res); err != nil {
			t.Fatalf("batch %d around the wrap (epoch %d): %v", i, sys.seen.epoch, err)
		}
		if err := sys.AccessInto(dupBatch(100, numVars, true), &res); !errors.Is(err, ErrDuplicateVar) {
			t.Fatalf("batch %d around the wrap (epoch %d): err = %v, want ErrDuplicateVar", i, sys.seen.epoch, err)
		}
	}
	if sys.seen.epoch == 0 || sys.seen.epoch > 16 {
		t.Fatalf("epoch %d after 12 batches across the wrap", sys.seen.epoch)
	}
}

// TestIterationCapReportsEachRequestOnce: when the iteration cap trips on a
// healthy interconnect (no fault view), a request with several bids still in
// flight is listed in Unfinished once.
func TestIterationCapReportsEachRequestOnce(t *testing.T) {
	sys := newSystem(t, 1, 3, Config{})
	sys.maxIter = 1
	reqs := dupBatch(int(sys.Mapper.NumModules()), sys.Mapper.NumVars(), false)
	res, err := sys.Access(reqs)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete (one round per phase cannot serve a full batch)", err)
	}
	seen := make(map[int]bool)
	for _, r := range res.Metrics.Unfinished {
		if seen[r] {
			t.Fatalf("request %d listed twice in Unfinished %v", r, res.Metrics.Unfinished)
		}
		seen[r] = true
	}
}
