package frontend

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"detshmem/internal/protocol"
)

// A Future holds no synchronization: its owner publishes completion. These
// tests stand in for the owner (shard.Batch) with the one WaitGroup it waits
// on — the flusher writes the cells, then calls Done; a waiter calls Wait,
// then reads them. Run under -race they pin that Pending's admission and
// Complete, and Fail, touch a future only before that publication.

// TestFutureCompletionRace runs K waiters against one future while its
// completion lands before any of them starts, between two halves of them, or
// after all of them are running. Half the waiters read Seq, all read Result;
// every one must see the completed value, error and sequence number, whether
// Pending.Complete or Fail resolved the future. A refused op (Fail) never
// entered a batch, so its Seq reads 0.
func TestFutureCompletionRace(t *testing.T) {
	const waiters, futures = 8, 200
	boom := errors.New("boom")
	p := NewPending(1)
	res := &protocol.Result{Values: make([]uint64, 1)}
	for _, land := range []string{"before", "between", "after"} {
		for _, fail := range []bool{false, true} {
			name := land + "/complete"
			if fail {
				name = land + "/fail"
			}
			t.Run(name, func(t *testing.T) {
				for n := 0; n < futures; n++ {
					f := new(Future)
					var published sync.WaitGroup
					published.Add(1)
					wantVal, wantErr, wantSeq := uint64(n)*7+1, error(nil), uint64(n)+1
					resolve := func() {
						p.Read(wantSeq, uint64(n), f)
						res.Values[0] = wantVal
						p.Complete(res, nil)
						p.Reset()
						published.Done()
					}
					if fail {
						wantVal, wantErr, wantSeq = 0, boom, 0
						resolve = func() {
							f.Fail(boom)
							published.Done()
						}
					}
					var wg sync.WaitGroup
					var started atomic.Int32
					start := func(k int) {
						wg.Add(1)
						go func() {
							defer wg.Done()
							started.Add(1)
							published.Wait()
							if k%2 == 1 {
								if seq := f.Seq(); seq != wantSeq {
									t.Errorf("future %d: Seq = %d, want %d", n, seq, wantSeq)
								}
							}
							if val, err := f.Result(); val != wantVal || err != wantErr {
								t.Errorf("future %d: Result = %d, %v; want %d, %v", n, val, err, wantVal, wantErr)
							}
						}()
					}
					switch land {
					case "before":
						resolve()
						for k := 0; k < waiters; k++ {
							start(k)
						}
					case "between":
						for k := 0; k < waiters/2; k++ {
							start(k)
						}
						runtime.Gosched()
						resolve()
						for k := waiters / 2; k < waiters; k++ {
							start(k)
						}
					case "after":
						for k := 0; k < waiters; k++ {
							start(k)
						}
						for i := 0; i < 100 && started.Load() != waiters; i++ {
							runtime.Gosched()
						}
						resolve()
					}
					wg.Wait()
				}
			})
		}
	}
}

// TestFutureCompletedBeforeWaitHasNoChannel: a Future carries no channel,
// lock or atomic — none of its fields is one — so a completed future answers
// Result and Seq from its fields alone, and reading it allocates nothing.
func TestFutureCompletedBeforeWaitHasNoChannel(t *testing.T) {
	typ := reflect.TypeOf(Future{})
	for i := range typ.NumField() {
		if fld := typ.Field(i); fld.Type.Kind() == reflect.Chan || fld.Type.Kind() == reflect.Struct {
			t.Errorf("Future field %s is a %s, want a plain value", fld.Name, fld.Type)
		}
	}
	f := new(Future)
	p := NewPending(1)
	p.Read(9, 3, f)
	p.Complete(&protocol.Result{Values: []uint64{42}}, nil)
	p.Reset()
	if val, err := f.Result(); val != 42 || err != nil {
		t.Fatalf("Result = %d, %v; want 42, nil", val, err)
	}
	if seq := f.Seq(); seq != 9 {
		t.Fatalf("Seq = %d, want 9", seq)
	}
	if avg := testing.AllocsPerRun(100, func() { f.Result() }); avg != 0 {
		t.Fatalf("Result on a completed future allocates %.1f", avg)
	}
}

// TestWaiterListsCompletionRace has many clients wait on the futures of one
// variable — combined reads in one batch, coalesced writes with forwarded
// reads in the next — while the flusher admits and completes them and
// publishes each batch once. Every waiter must see its own value, and once
// Reset the Pending must hold none of the futures it handed back.
func TestWaiterListsCompletionRace(t *testing.T) {
	const waiters, rounds, v = 32, 50, 7
	p := NewPending(4)
	res := &protocol.Result{Values: make([]uint64, 1)}
	dropped := func(round uint64) {
		t.Helper()
		if p.Ops() != 0 {
			t.Fatalf("round %d: %d waiters left after Reset", round, p.Ops())
		}
		for _, w := range p.waiters[:cap(p.waiters)] {
			if w.fut != nil {
				t.Fatalf("round %d: Reset left a completed future in the waiter array", round)
			}
		}
	}
	for round := range uint64(rounds) {
		futs := make([]Future, 2*waiters)
		want := make([]uint64, len(futs))
		var published [2]sync.WaitGroup
		published[0].Add(1)
		published[1].Add(1)
		var wg sync.WaitGroup
		for i := range futs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				published[i/waiters].Wait()
				if val, err := futs[i].Result(); err != nil || val != want[i] {
					t.Errorf("round %d waiter %d: Result = %d, %v; want %d", round, i, val, err, want[i])
				}
			}()
		}
		// want is written before its batch is published, so a waiter reads
		// it after its Wait returns.
		seq := uint64(0)
		read := round*1000 + 1
		for i := range waiters {
			seq++
			want[i] = read
			p.Read(seq, v, &futs[i])
		}
		res.Values[0] = read
		p.Complete(res, nil)
		p.Reset()
		dropped(round)
		published[0].Done()

		last := uint64(0)
		for i := waiters; i < len(futs); i++ {
			seq++
			if i%2 == 0 {
				last = round*1000 + seq
				p.Write(seq, v, last, &futs[i])
			} else {
				want[i] = last
				p.Read(seq, v, &futs[i])
			}
		}
		p.Complete(res, nil)
		p.Reset()
		dropped(round)
		published[1].Done()
		wg.Wait()
	}
}
