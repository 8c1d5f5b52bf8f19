package main

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/netmpc"
	"detshmem/internal/protocol"
)

// memCluster is an in-process loopback cluster of netmpc.Servers over the
// q=2 scheme of degree n: a kill closes a server with its connections, a
// restart serves a fresh one (empty store, new generation) on its address.
type memCluster struct {
	s     *core.Scheme
	addrs []string
	svs   []*netmpc.Server
}

func newMemCluster(t *testing.T, n, k int) *memCluster {
	t.Helper()
	s, err := core.New(1, n)
	if err != nil {
		t.Fatal(err)
	}
	c := &memCluster{s: s, addrs: make([]string, k), svs: make([]*netmpc.Server, k)}
	t.Cleanup(func() {
		for _, sv := range c.svs {
			if sv != nil {
				sv.Close()
			}
		}
	})
	for i := range c.addrs {
		if err := c.serve(i, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func (c *memCluster) serve(i int, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	lo, hi := netmpc.Range(i, len(c.addrs), int64(c.s.NumModules))
	sv := netmpc.NewServer(netmpc.ServerConfig{
		Q: c.s.Q, N: uint32(c.s.Deg),
		Modules: c.s.NumModules, AddrSpace: c.s.NumModules * uint64(c.s.ModuleSize),
		RangeLo: uint64(lo), RangeHi: uint64(hi),
	})
	go sv.Serve(ln)
	c.addrs[i], c.svs[i] = ln.Addr().String(), sv
	return nil
}

func (c *memCluster) kill(i int) error { c.svs[i].Close(); return nil }

func (c *memCluster) restart(i int) error { return c.serve(i, c.addrs[i]) }

// TestDrills runs both drills against an in-process cluster of four servers
// at n=5 with victims 1 and 2, and checks the certified trace each returns
// against the memory map: the kill drill refused only ops on variables
// without a majority outside the victim's range, and some; every variable
// the wipe drill wrote and read has exactly one copy on the victim.
func TestDrills(t *testing.T) {
	const n, k = 5, 4
	for _, name := range []string{"kill", "wipe"} {
		for _, victim := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/victim=%d", name, victim), func(t *testing.T) {
				c := newMemCluster(t, n, k)
				var log bytes.Buffer
				ts, err := runDrill(name, n, c.addrs, victim, c, &log, time.Now().Add(time.Minute))
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				idx, err := c.s.NewIndexer()
				if err != nil {
					t.Fatal(err)
				}
				m := protocol.NewCoreMapper(c.s, idx)
				onVictim := func(v uint64) int {
					on := 0
					for cp := 0; cp < m.Copies(); cp++ {
						if mod, _ := m.CopyAddr(v, cp); netmpc.ServerFor(int64(mod), int64(m.NumModules()), k) == victim {
							on++
						}
					}
					return on
				}
				refused := 0
				for _, ops := range ts.Runs[0].Clients {
					for _, op := range ops {
						switch {
						case name == "wipe" && onVictim(op.Var) != 1:
							t.Fatalf("wipe drill used variable %d with %d copies on server %d", op.Var, onVictim(op.Var), victim)
						case op.Failed && m.Copies()-onVictim(op.Var) >= m.ReadQuorum():
							t.Fatalf("kill drill refused an op on variable %d, which keeps a majority", op.Var)
						case op.Failed:
							refused++
						}
					}
				}
				if name == "kill" && refused == 0 {
					t.Fatalf("kill drill refused nothing:\n%s", log.String())
				}
				t.Log(log.String())
			})
		}
	}
}
