package frontend

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestFutureCompletionRace runs K waiters against one future while its
// completion lands before any of them starts, between two halves of them, or
// after all of them are running (and, when the scheduler lets them, parked).
// Half the waiters call Wait, half Seq; every one must return with the
// completed value, error and sequence number, whether complete or Fail
// resolved the future. Run under -race it pins the completion protocol: the
// lock-free complete against the waiters' channel creation.
func TestFutureCompletionRace(t *testing.T) {
	const waiters, futures = 8, 200
	boom := errors.New("boom")
	for _, land := range []string{"before", "between", "after"} {
		for _, fail := range []bool{false, true} {
			name := land + "/complete"
			if fail {
				name = land + "/fail"
			}
			t.Run(name, func(t *testing.T) {
				for n := 0; n < futures; n++ {
					f := new(Future)
					f.seq = uint64(n) + 1
					wantVal, wantErr := uint64(n)*7+1, error(nil)
					resolve := func() { f.complete(wantVal, nil) }
					if fail {
						wantVal, wantErr = 0, boom
						resolve = func() { f.Fail(boom) }
					}
					var wg sync.WaitGroup
					start := func(k int) {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if k%2 == 1 {
								if seq := f.Seq(); seq != uint64(n)+1 {
									t.Errorf("future %d: Seq = %d, want %d", n, seq, n+1)
								}
							}
							if val, err := f.Wait(); val != wantVal || err != wantErr {
								t.Errorf("future %d: Wait = %d, %v; want %d, %v", n, val, err, wantVal, wantErr)
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
						for i := 0; i < 100 && f.state.Load() != futureWaited; i++ {
							runtime.Gosched()
						}
						resolve()
					}
					wg.Wait()
					if f.state.Load() != futureDone {
						t.Fatalf("future %d: state %d after completion, want done", n, f.state.Load())
					}
				}
			})
		}
	}
}

// TestFutureCompletedBeforeWaitHasNoChannel: a future completed before any
// waiter arrives answers Wait and Seq from its state alone — no completion
// channel is ever created, so the windowed client's common case allocates
// nothing and takes no lock.
func TestFutureCompletedBeforeWaitHasNoChannel(t *testing.T) {
	f := new(Future)
	f.seq = 9
	f.complete(42, nil)
	if val, err := f.Wait(); val != 42 || err != nil {
		t.Fatalf("Wait = %d, %v; want 42, nil", val, err)
	}
	if seq := f.Seq(); seq != 9 {
		t.Fatalf("Seq = %d, want 9", seq)
	}
	if f.done != nil {
		t.Fatal("a future completed before any wait created a completion channel")
	}
	if avg := testing.AllocsPerRun(100, func() { f.Wait() }); avg != 0 {
		t.Fatalf("Wait on a completed future allocates %.1f", avg)
	}
}
