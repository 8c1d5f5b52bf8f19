// Package stack builds the serving stack in one call: the q=2 PP93 scheme
// of one degree, its indexer and constructive mapper, the resolver, one
// machine source and the sharded service over them. The memory map is
// constructive — a client computes every copy's module and address from
// (q, n) — so a stack is fully set by the scheme plus one choice of machine:
// the plain in-process MPC, a fault set over it, or memservers over TCP
// (DESIGN.md row 26).
//
//	st, err := stack.Open(stack.Spec{Degree: 5})
//	...
//	defer st.Close()
//	_ = st.Service.Write(7, 42)
package stack

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// Spec chooses a stack. Apart from Degree the zero value is the plain
// single-shard service over the compiled table. At most one machine source
// (Faults, Loopback, Remote) may be set; none is the plain in-process MPC.
type Spec struct {
	// Degree is the extension degree n of the q=2 scheme.
	Degree int
	// Shards is S; 0 means 1. A stack over TCP serves one shard.
	Shards int
	// Computed resolves copy addresses through core's kernels. Otherwise the
	// table is compiled once when it fits (protocol.TableFits) and shared by
	// every shard; a mapper too large for it resolves computed either way.
	Computed bool
	// Observer, when non-nil, receives every shard's batch events.
	Observer obs.BatchObserver
	// Wrap, when non-nil, is called once per shard with the machine source's
	// transport and returns the transport that shard's system uses.
	Wrap func(shard int, t protocol.Transport) protocol.Transport

	// Faults runs every shard over mpc.Failing machines that consult one
	// fault set, Stack.Faults. Shared by S > 1 shards, a module re-admitted
	// through repair is certified by whichever shard's sweep finishes first,
	// though each shard rebuilds only the variables it owns (ROADMAP item 14).
	Faults bool
	// Loopback starts that many netmpc servers on 127.0.0.1, each owning
	// its netmpc.Range of the modules, and dials them.
	Loopback int
	// Remote dials the memservers at these addresses, in range order.
	Remote []string
}

// Stack is an open serving stack. Its fields are read-only.
type Stack struct {
	Scheme  *core.Scheme
	Indexer core.Indexer
	// Mapper is the constructive core mapper the service is built over.
	Mapper protocol.Mapper
	// Resolver turns variables into copy addresses on this stack: the
	// compiled table, or Mapper itself when resolution is computed.
	Resolver protocol.Mapper
	Service  *shard.Service
	// Faults is the fault set the machines consult: the stack's own with
	// Spec.Faults, the transport's over TCP, nil on the plain MPC.
	Faults *mpc.FaultSet
	// Transport is the netmpc client over TCP, nil otherwise; its Stats are
	// the wire's per-server books.
	Transport *netmpc.Transport

	servers []*netmpc.Server
	serving sync.WaitGroup
}

// Open builds the stack sp describes. On error it returns nil, with
// everything it had started already closed.
func Open(sp Spec) (st *Stack, err error) {
	sources := 0
	for _, on := range []bool{sp.Faults, sp.Loopback > 0, len(sp.Remote) > 0} {
		if on {
			sources++
		}
	}
	tcp := sp.Loopback > 0 || len(sp.Remote) > 0
	switch {
	case sources > 1:
		return nil, errors.New("stack: more than one machine source (Faults, Loopback, Remote)")
	case tcp && sp.Shards > 1:
		return nil, fmt.Errorf("stack: %d shards over TCP; a netmpc transport serves one shard", sp.Shards)
	}

	st = &Stack{}
	defer func() {
		if err != nil {
			_ = st.Close()
			st = nil
		}
	}()
	if st.Scheme, err = core.New(1, sp.Degree); err != nil {
		return st, err
	}
	if st.Indexer, err = st.Scheme.NewIndexer(); err != nil {
		return st, err
	}
	st.Mapper = protocol.NewCoreMapper(st.Scheme, st.Indexer)
	st.Resolver = st.Mapper

	pcfg := protocol.Config{Observer: sp.Observer}
	switch {
	case sp.Computed:
		pcfg.Strategy = protocol.ResolverComputed
	case protocol.TableFits(st.Mapper):
		table, err := protocol.CompileMapper(st.Mapper, protocol.CompileOptions{})
		if err != nil {
			return st, err
		}
		pcfg.Resolver, st.Resolver = table, table
	}

	source := protocol.Inproc
	switch {
	case sp.Faults:
		st.Faults = mpc.NewFaultSet()
		source = faultTransport{st.Faults}
	case tcp:
		addrs := sp.Remote
		if sp.Loopback > 0 {
			if addrs, err = st.serve(sp.Loopback); err != nil {
				return st, err
			}
		}
		cfg, _ := netmpc.Geometry(st.Scheme, 0, len(addrs))
		cfg.Servers = addrs
		if st.Transport, err = netmpc.Dial(cfg); err != nil {
			return st, err
		}
		st.Faults = st.Transport.FaultSet()
		source = st.Transport
	}

	cfg := shard.Config{Shards: sp.Shards, Protocol: pcfg}
	if sp.Wrap != nil {
		cfg.Transport = func(i int) protocol.Transport { return sp.Wrap(i, source) }
	} else {
		cfg.Protocol.Transport = source
	}
	st.Service, err = shard.New(st.Mapper, cfg)
	return st, err
}

// serve starts k loopback netmpc servers, server i owning its Range of the
// scheme's modules, and returns their addresses in range order.
func (st *Stack) serve(k int) ([]string, error) {
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		_, cfg := netmpc.Geometry(st.Scheme, i, k)
		sv := netmpc.NewServer(cfg)
		st.servers = append(st.servers, sv)
		st.serving.Add(1)
		go func() {
			defer st.serving.Done()
			_ = sv.Serve(ln) // returns once Close stops the server
		}()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// ServerFrames sums the round frames the loopback servers served.
func (st *Stack) ServerFrames() uint64 {
	var n uint64
	for _, sv := range st.servers {
		n += sv.FramesServed()
	}
	return n
}

// Close closes the service, then the transport, then the loopback servers,
// and waits for every goroutine the stack started. It returns the service's
// Close error.
func (st *Stack) Close() error {
	var err error
	if st.Service != nil {
		err = st.Service.Close()
	}
	if st.Transport != nil {
		st.Transport.Close()
	}
	for _, sv := range st.servers {
		sv.Close()
	}
	st.serving.Wait()
	return err
}

// faultTransport builds mpc.Failing machines over one shared fault set.
type faultTransport struct{ fs *mpc.FaultSet }

func (t faultTransport) NewMachine(cfg mpc.Config) (protocol.Machine, error) {
	f, err := mpc.NewFailingShared(cfg, t.fs)
	if err != nil {
		return nil, err
	}
	return f, nil
}
