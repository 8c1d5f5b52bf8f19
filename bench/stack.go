package main

import (
	"net"
	"sync"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// stack is one workload's system under test, from the memory organization
// up to the sharded service, plus whatever the workload needs beside it
// (loopback servers, a shared fault set).
type stack struct {
	sp     *workloadSpec
	scheme *core.Scheme
	idx    core.Indexer
	mapper protocol.Mapper
	// resolver is what turns variables into copy addresses on this workload:
	// the compiled table, or the core mapper's computed path.
	resolver protocol.Mapper
	svc      *shard.Service

	faults  *mpc.FaultSet // fault-repair only
	servers []*netmpc.Server
	serving sync.WaitGroup
	tr      *netmpc.Transport
}

// buildStack builds the stack cold. With a tracer, every shard's machine is
// built through the tracer's timing transport and the tracer observes every
// batch and repair step; without one the stack is wired exactly as a user
// would wire it.
func buildStack(sp *workloadSpec, quick bool, tc *tracer) (st *stack, err error) {
	st = &stack{sp: sp}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.scheme, err = core.New(1, sp.degree(quick)); err != nil {
		return st, err
	}
	if st.idx, err = st.scheme.NewIndexer(); err != nil {
		return st, err
	}
	st.mapper = protocol.NewCoreMapper(st.scheme, st.idx)
	st.resolver = st.mapper

	var pcfg protocol.Config
	if sp.computed {
		pcfg.Strategy = protocol.ResolverComputed
	} else {
		table, err := protocol.CompileMapper(st.mapper, protocol.CompileOptions{})
		if err != nil {
			return st, err
		}
		pcfg.Resolver = table
		st.resolver = table
	}

	// newMachine is the workload's interconnect; nil means the plain
	// in-process MPC.
	var newMachine func(mpc.Config) (protocol.Machine, error)
	switch {
	case sp.faults:
		st.faults = mpc.NewFaultSet()
		newMachine = func(cfg mpc.Config) (protocol.Machine, error) {
			return mpc.NewFailingShared(cfg, st.faults)
		}
	case sp.tcp:
		if err = st.startCluster(); err != nil {
			return st, err
		}
		newMachine = st.tr.NewMachine
	}

	cfg := shard.Config{Shards: sp.shards, Pipeline: true}
	switch {
	case tc != nil:
		pcfg.Observer = tc
		inner := newMachine
		if inner == nil {
			inner = protocol.Inproc.NewMachine
		}
		cfg.Transport = func(shard int) protocol.Transport {
			return &timedTransport{shard: shard, inner: inner, tc: tc}
		}
	case sp.faults:
		pcfg.NewMachine = newMachine
	case sp.tcp:
		cfg.Transport = func(int) protocol.Transport { return st.tr }
	}
	cfg.Protocol = pcfg
	st.svc, err = shard.New(st.mapper, cfg)
	return st, err
}

// tcpServers is the loopback cluster size: one connection per server, so
// the workload holds two TCP connections.
const tcpServers = 2

// startCluster starts the loopback netmpc servers and dials them.
func (st *stack) startCluster() error {
	modules := st.scheme.NumModules
	space := modules * uint64(st.scheme.ModuleSize)
	addrs := make([]string, 0, tcpServers)
	for i := 0; i < tcpServers; i++ {
		lo, hi := netmpc.Range(i, tcpServers, int64(modules))
		sv := netmpc.NewServer(netmpc.ServerConfig{
			Q: st.scheme.Q, N: uint32(st.scheme.Deg),
			Modules: modules, AddrSpace: space,
			RangeLo: uint64(lo), RangeHi: uint64(hi),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		st.servers = append(st.servers, sv)
		st.serving.Add(1)
		go func() {
			defer st.serving.Done()
			_ = sv.Serve(ln) // returns when close() stops the server
		}()
		addrs = append(addrs, ln.Addr().String())
	}
	var err error
	st.tr, err = netmpc.Dial(netmpc.Config{
		Servers: addrs,
		Q:       st.scheme.Q, N: uint32(st.scheme.Deg),
		Modules: int64(modules), AddrSpace: space,
		StoreID:      1,
		RoundTimeout: 3 * time.Second,
	})
	return err
}

// close tears the stack down in dependency order and waits for every
// goroutine it started.
func (st *stack) close() error {
	var err error
	if st.svc != nil {
		err = st.svc.Close()
	}
	if st.tr != nil {
		st.tr.Close()
	}
	for _, sv := range st.servers {
		sv.Close()
	}
	st.serving.Wait()
	return err
}

// serverFrames sums the round frames the loopback servers processed.
func (st *stack) serverFrames() uint64 {
	var n uint64
	for _, sv := range st.servers {
		n += sv.FramesServed()
	}
	return n
}
