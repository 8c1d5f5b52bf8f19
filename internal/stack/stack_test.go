package stack

import (
	"errors"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// noLeaks records the goroutine count and, at cleanup, polls it back to
// that baseline under a deadline; a goroutine the stack left behind fails
// the test.
func noLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines left over %d:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
			runtime.Gosched()
		}
	})
}

// open opens sp and closes it at cleanup, requiring a nil Close.
func open(t *testing.T, sp Spec) *Stack {
	t.Helper()
	st, err := Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return st
}

// writeRead writes every variable of vars and reads each one back.
func writeRead(t *testing.T, st *Stack, vars []uint64, base uint64) {
	t.Helper()
	for _, v := range vars {
		if err := st.Service.Write(v, base+v); err != nil {
			t.Fatalf("write %d: %v", v, err)
		}
	}
	for _, v := range vars {
		if got, err := st.Service.Read(v); err != nil || got != base+v {
			t.Fatalf("read %d = %d, %v; want %d", v, got, err, base+v)
		}
	}
}

// listen starts k in-process memservers for the q=2 scheme of st's degree,
// closed at cleanup, and returns their addresses.
func listen(t *testing.T, st *Stack, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		_, cfg := netmpc.Geometry(st.Scheme, i, k)
		sv := netmpc.NewServer(cfg)
		done := make(chan struct{})
		go func() { defer close(done); _ = sv.Serve(ln) }()
		t.Cleanup(func() { sv.Close(); <-done })
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

var someVars = []uint64{0, 1, 7, 30, 83}

// TestPlain: the default source is the plain MPC over the compiled table,
// every shard reporting to the Observer; Computed resolves through the
// core mapper itself.
func TestPlain(t *testing.T) {
	noLeaks(t)
	col := obs.NewCollector()
	st := open(t, Spec{Degree: 3, Observer: col})
	if _, ok := st.Resolver.(*protocol.CompiledResolver); !ok {
		t.Errorf("resolver %T, want the compiled table", st.Resolver)
	}
	if st.Faults != nil || st.Transport != nil {
		t.Errorf("plain stack has a fault set or a transport")
	}
	writeRead(t, st, someVars, 100)
	if col.Rounds.Load() == 0 {
		t.Errorf("the Observer saw no rounds")
	}

	computed := open(t, Spec{Degree: 3, Computed: true})
	if computed.Resolver != computed.Mapper {
		t.Errorf("computed resolver %T, want the core mapper", computed.Resolver)
	}
	writeRead(t, computed, someVars, 200)
}

// TestFaults: at S=2 over one fault set, a write commits with a copy's
// module failed, the module is re-admitted through RecoverPending, the
// sweeps drain the repair set, and with another copy failed the value
// still reads back.
func TestFaults(t *testing.T) {
	noLeaks(t)
	st := open(t, Spec{Degree: 3, Shards: 2, Faults: true})
	if st.Service.Shards() != 2 || st.Faults == nil {
		t.Fatalf("%d shards, fault set %v", st.Service.Shards(), st.Faults)
	}
	writeRead(t, st, someVars, 100)
	for _, v := range someVars {
		m0, _ := st.Mapper.CopyAddr(v, 0)
		m1, _ := st.Mapper.CopyAddr(v, 1)
		st.Faults.Fail(m0)
		if err := st.Service.Write(v, 300+v); err != nil {
			t.Fatalf("write %d with module %d failed: %v", v, m0, err)
		}
		if !st.Faults.RecoverPending(m0) {
			t.Fatalf("module %d did not enter repair", m0)
		}
		deadline := time.Now().Add(10 * time.Second)
		for st.Faults.Snapshot().RepairCount() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("module %d still repairing", m0)
			}
			// Reads pump the sweep; Flush wakes the idle dispatchers.
			if _, err := st.Service.Read(v); err != nil && !errors.Is(err, protocol.ErrIncomplete) {
				t.Fatal(err)
			}
			if err := st.Service.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		st.Faults.Fail(m1)
		if got, err := st.Service.Read(v); err != nil || got != 300+v {
			t.Fatalf("read %d with module %d failed after repair = %d, %v; want %d", v, m1, got, err, 300+v)
		}
		st.Faults.RecoverPending(m1)
	}
}

// TestLoopback: two loopback servers serve the writes and count the frames;
// once the stack is closed the transport is closed and the servers refuse
// connections.
func TestLoopback(t *testing.T) {
	noLeaks(t)
	st, err := Open(Spec{Degree: 3, Loopback: 2})
	if err != nil {
		t.Fatal(err)
	}
	writeRead(t, st, someVars, 100)
	stats := st.Transport.Stats()
	if len(stats) != 2 || st.Faults != st.Transport.FaultSet() || st.ServerFrames() == 0 {
		t.Fatalf("%d servers, %d frames served", len(stats), st.ServerFrames())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Transport.NewMachine(mpc.Config{Procs: 3, Modules: int(st.Scheme.NumModules)}); !errors.Is(err, netmpc.ErrClosed) {
		t.Errorf("transport builds machines after Close: %v", err)
	}
	for _, s := range stats {
		if c, err := net.Dial("tcp", s.Addr); err == nil {
			c.Close()
			t.Errorf("%s accepts connections after Close", s.Addr)
		}
	}
}

// TestRemote: the stack dials servers it did not start.
func TestRemote(t *testing.T) {
	noLeaks(t)
	plain := open(t, Spec{Degree: 3})
	st := open(t, Spec{Degree: 3, Remote: listen(t, plain, 3)})
	writeRead(t, st, someVars, 100)
	if n := len(st.Transport.Stats()); n != 3 {
		t.Fatalf("transport over %d servers, want 3", n)
	}
}

// TestOpenErrors: a Spec no stack can serve is refused, and whatever Open
// started before it failed is gone.
func TestOpenErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	for _, tc := range []struct {
		name string
		sp   Spec
	}{
		{"degree 2", Spec{Degree: 2}},
		{"two sources", Spec{Degree: 3, Faults: true, Loopback: 2}},
		{"shards over TCP", Spec{Degree: 3, Shards: 2, Loopback: 2}},
		{"unreachable", Spec{Degree: 3, Remote: []string{refused}}},
		{"bad shards after the servers started", Spec{Degree: 3, Shards: -1, Loopback: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			noLeaks(t)
			if st, err := Open(tc.sp); err == nil || st != nil {
				t.Fatalf("Open = %v, %v; want an error", st, err)
			}
		})
	}
}

// TestWrapOncePerShard: the wrapper is called once per shard, with the
// machine source's transport.
func TestWrapOncePerShard(t *testing.T) {
	noLeaks(t)
	var shards []int
	st := open(t, Spec{Degree: 3, Shards: 3, Wrap: func(i int, tr protocol.Transport) protocol.Transport {
		if tr != protocol.Inproc {
			t.Errorf("shard %d wraps %T, want the plain MPC", i, tr)
		}
		shards = append(shards, i)
		return tr
	}})
	if !slices.Equal(shards, []int{0, 1, 2}) {
		t.Fatalf("wrapped shards %v, want [0 1 2]", shards)
	}
	writeRead(t, st, someVars, 100)
}
