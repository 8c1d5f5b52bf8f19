package protocol

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// FuzzDistinctBatch holds DistinctBatch against a map model on random
// scripts of Add, Lookup and Reset, two bytes an instruction. Single adds
// draw from 40 variables, so repeats are common; a burst adds up to 765
// fresh ones, across several growths of the table; a forced wrap stamps
// every slot of an emptied batch with epoch 1 and moves the epoch near its
// last value, so the wrap comes within two Resets and only its clear keeps
// the stale slots out.
func FuzzDistinctBatch(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 2, 0, 1, 1})
	f.Add([]byte{3, 255, 1, 7, 2, 0, 0, 7, 3, 20, 2, 0})
	f.Add([]byte{3, 40, 4, 0, 2, 0, 0, 3, 2, 0, 0, 3, 1, 3, 2, 0, 3, 30, 1, 9})
	f.Add([]byte{0, 5, 0, 6, 4, 0, 0, 5, 2, 0, 2, 0, 1, 5, 1, 6, 0, 6}) // stale stamps meet the wrap
	f.Fuzz(func(t *testing.T, script []byte) {
		var b DistinctBatch
		pos := map[uint64]int{}
		var order []Request
		add := func(r Request) {
			p, added := b.Add(r)
			want, had := pos[r.Var]
			if !had {
				want = len(order)
				pos[r.Var] = want
				order = append(order, r)
			}
			if p != want || added == had {
				t.Fatalf("Add(%d) = %d, %v; model %d, %v", r.Var, p, added, want, !had)
			}
		}
		reset := func() {
			b.Reset()
			for v := range pos {
				if _, ok := b.Lookup(v); ok {
					t.Fatalf("variable %d still in the batch after Reset", v)
				}
			}
			pos, order = map[uint64]int{}, order[:0]
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%5, script[i+1]
			switch op {
			case 0:
				add(Request{Var: uint64(arg % 40), Op: Op(arg % 2), Value: uint64(i)})
			case 1:
				v := uint64(arg % 40)
				p, ok := b.Lookup(v)
				want, had := pos[v]
				if ok != had || (ok && p != want) {
					t.Fatalf("Lookup(%d) = %d, %v; model %d, %v", v, p, ok, want, had)
				}
			case 2:
				reset()
			case 3:
				for j := range 3 * int(arg) {
					add(Request{Var: 1000 + uint64(j)*7919, Op: Write, Value: uint64(j)})
				}
			case 4:
				reset()
				for j := range b.slots {
					b.slots[j].epoch = 1
				}
				b.epoch = math.MaxUint32 - 1
			}
			if !slices.Equal(b.Requests(), order) || b.Len() != len(order) {
				t.Fatalf("Requests = %v, model %v", b.Requests(), order)
			}
		}
	})
}

// TestDistinctBatchResetTouchesNoSlot: Reset after a large batch empties it
// by epoch alone — the table keeps its size and storage and no slot is
// written, so a small batch after a large one pays nothing for the large
// one's table.
func TestDistinctBatchResetTouchesNoSlot(t *testing.T) {
	var b DistinctBatch
	for v := range uint64(4096) {
		b.Add(Request{Var: v * 31})
	}
	storage, table := &b.slots[0], slices.Clone(b.slots)
	b.Reset()
	if &b.slots[0] != storage || !slices.Equal(b.slots, table) {
		t.Fatal("Reset rewrote the table")
	}
	for v := range uint64(57) {
		b.Add(Request{Var: v*131 + 1})
	}
	if &b.slots[0] != storage || len(b.slots) != len(table) {
		t.Fatalf("a 57-request batch after a 4096-request one left a table of %d slots, want %d", len(b.slots), len(table))
	}
	if _, ok := b.Lookup(31); ok {
		t.Fatal("a variable of the large batch is still in the batch")
	}
}

// TestAccessDistinctIntoMatchesAccessInto: two systems over one scheme serve
// the same random batches, one through AccessInto and one through
// AccessDistinctInto; values and metrics must be bit-equal batch for batch,
// and so must the errors for a variable out of range and a batch over N.
func TestAccessDistinctIntoMatchesAccessInto(t *testing.T) {
	plain := newSystem(t, 1, 5, Config{TraceLive: true})
	built := newSystem(t, 1, 5, Config{TraceLive: true})
	n, numVars := int(plain.Mapper.NumModules()), plain.Mapper.NumVars()
	rng := rand.New(rand.NewSource(34))
	var (
		b          DistinctBatch
		resA, resB Result
	)
	for i, size := range []int{1, 2, 7, n / 8, n / 2, n, 3, n} {
		b.Reset()
		for b.Len() < size {
			r := Request{Var: uint64(rng.Int63n(int64(numVars))), Op: Op(rng.Intn(2)), Value: uint64(rng.Int63())}
			b.Add(r)
		}
		reqs := slices.Clone(b.Requests())
		errA := plain.AccessInto(reqs, &resA)
		errB := built.AccessDistinctInto(&b, &resB)
		if errA != nil || errB != nil {
			t.Fatalf("batch %d of %d: AccessInto %v, AccessDistinctInto %v", i, size, errA, errB)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("batch %d of %d: results differ\nAccessInto         %+v\nAccessDistinctInto %+v", i, size, resA.Metrics, resB.Metrics)
		}
	}
	b.Reset()
	b.Add(Request{Var: 1})
	b.Add(Request{Var: numVars})
	errA := plain.AccessInto(slices.Clone(b.Requests()), &resA)
	errB := built.AccessDistinctInto(&b, &resB)
	if !errors.Is(errB, ErrVarOutOfRange) || errA.Error() != errB.Error() {
		t.Fatalf("out of range: AccessInto %v, AccessDistinctInto %v", errA, errB)
	}
	b.Reset()
	for v := range uint64(n + 1) {
		b.Add(Request{Var: v})
	}
	errA = plain.AccessInto(slices.Clone(b.Requests()), &resA)
	errB = built.AccessDistinctInto(&b, &resB)
	if !errors.Is(errB, ErrBatchTooLarge) || errA.Error() != errB.Error() {
		t.Fatalf("over N: AccessInto %v, AccessDistinctInto %v", errA, errB)
	}
}
