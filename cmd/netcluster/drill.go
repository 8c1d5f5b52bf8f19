package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/core"
	"detshmem/internal/netmpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// Drill shape: the kill drill's clients each run windows of ops per phase
// over a strided set of workload variables; the wipe drill rebuilds up to
// wipeVars variables that have exactly one copy on the victim.
const (
	clients      = 4
	window       = 16
	windows      = 16 // per client and phase
	workloadVars = 64
	writePct     = 40
	wipeVars     = 32
)

// cluster is what a drill does to the memservers besides talking to them.
// netcluster's are processes; the test's are in-process netmpc.Servers.
type cluster interface {
	// kill stops server i at once and returns after it is gone.
	kill(i int) error
	// restart starts a fresh server i, with an empty store, on the address
	// of the killed one.
	restart(i int) error
}

// drills maps each -drill value to the function that runs it.
var drills = map[string]func(*drill) (*consistency.TraceSet, error){
	"kill": (*drill).kill,
	"wipe": (*drill).wipe,
}

// drill is one run against a cluster: the scheme built from -n, the servers'
// addresses in range order, and the victim with the module range it owns.
type drill struct {
	s        *core.Scheme
	m        protocol.Mapper
	addrs    []string
	victim   int
	lo, hi   uint64
	c        cluster
	w        io.Writer
	deadline time.Time
}

// runDrill runs the named drill against the servers at addrs, which serve
// the q=2 scheme of degree n, with addrs[victim] its victim, and returns its
// certified trace.
func runDrill(name string, n int, addrs []string, victim int, c cluster, w io.Writer, deadline time.Time) (*consistency.TraceSet, error) {
	drive, ok := drills[name]
	if !ok {
		return nil, fmt.Errorf("unknown drill %q; known drills: kill, wipe", name)
	}
	s, err := core.New(1, n)
	if err != nil {
		return nil, err
	}
	idx, err := s.NewIndexer()
	if err != nil {
		return nil, err
	}
	lo, hi := netmpc.Range(victim, len(addrs), int64(s.NumModules))
	d := &drill{
		s: s, m: protocol.NewCoreMapper(s, idx), addrs: addrs,
		victim: victim, lo: uint64(lo), hi: uint64(hi),
		c: c, w: w, deadline: deadline,
	}
	ts, err := drive(d)
	if err != nil {
		return nil, err
	}
	for _, run := range ts.Runs {
		for _, mode := range consistency.ModesFor(run.Contract) {
			if r := consistency.Check(run.Clients, mode); !r.OK {
				return nil, fmt.Errorf("run %q violated %s: %s", run.Label, mode, r.First().Message)
			}
		}
	}
	fmt.Fprintf(d.w, "netcluster: %s trace certified (%d ops)\n", name, ts.Runs[0].Clients.Ops())
	return ts, nil
}

// connect dials the cluster and builds a one-shard service over it whose
// system reports its protocol facts to o (nil for none).
func (d *drill) connect(o obs.BatchObserver) (*netmpc.Transport, *shard.Service, error) {
	tr, err := netmpc.Dial(netmpc.Config{
		Servers:   d.addrs,
		Q:         d.s.Q,
		N:         uint32(d.s.Deg),
		Modules:   int64(d.s.NumModules),
		AddrSpace: d.s.NumModules * uint64(d.s.ModuleSize),
	})
	if err != nil {
		return nil, nil, err
	}
	svc, err := shard.New(d.m, shard.Config{
		Protocol:  protocol.Config{Observer: o},
		Transport: func(int) protocol.Transport { return tr },
	})
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	return tr, svc, nil
}

// onVictim counts v's copies in the victim's module range. It reads the
// memory map only, so it is an oracle independent of the fault layer.
func (d *drill) onVictim(v uint64) int {
	n := 0
	for c := 0; c < d.m.Copies(); c++ {
		if mod, _ := d.m.CopyAddr(v, c); mod >= d.lo && mod < d.hi {
			n++
		}
	}
	return n
}

// lost reports whether v keeps fewer live copies than its quorum once the
// victim's range is dead.
func (d *drill) lost(v uint64) bool {
	return d.m.Copies()-d.onVictim(v) < max(d.m.ReadQuorum(), d.m.WriteQuorum())
}

// awaitEpoch reads probe until the fault set has moved on from epoch. The
// transport finds a dead server at the first round that bids at it, so every
// probe variable needs a copy on the victim; the reads are not recorded, and
// the ones the death refuses are expected.
func (d *drill) awaitEpoch(svc *shard.Service, tr *netmpc.Transport, epoch uint64, probe []uint64) (int, error) {
	reads := 0
	for ; tr.FaultSet().Epoch() == epoch; reads++ {
		if time.Now().After(d.deadline) {
			return reads, fmt.Errorf("%d probe reads met no change in the fault set", reads)
		}
		if _, err := svc.Read(probe[reads%len(probe)]); err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			return reads, err
		}
	}
	return reads, nil
}

// kill is the quorum re-selection drill: a healthy phase in which every op
// commits, the victim killed, and a degraded phase in which an op is refused
// with ErrQuorumUnreachable exactly when its variable lost its majority to
// the victim's range, by the memory map, and commits otherwise.
func (d *drill) kill() (*consistency.TraceSet, error) {
	vars := make([]uint64, workloadVars)
	var probe []uint64
	for i := range vars {
		vars[i] = uint64(i*7+3) % d.m.NumVars()
		if d.lost(vars[i]) {
			probe = append(probe, vars[i])
		}
	}
	if len(probe) == 0 {
		return nil, fmt.Errorf("none of the %d workload variables loses its majority with server %d's modules [%d,%d) dead", len(vars), d.victim, d.lo, d.hi)
	}
	tr, svc, err := d.connect(nil)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	defer svc.Close()

	rec := consistency.NewRecorder()
	rr := rec.Run("kill", consistency.ContractTotalOrder, clients)
	t, err := traffic(svc, rr, vars, nil, 1)
	if err != nil {
		return nil, fmt.Errorf("healthy phase: %w", err)
	}
	fmt.Fprintf(d.w, "netcluster: healthy phase: %d ops committed\n", t.ops)

	epoch := tr.FaultSet().Epoch()
	if err := d.c.kill(d.victim); err != nil {
		return nil, err
	}
	reads, err := d.awaitEpoch(svc, tr, epoch, probe)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(d.w, "netcluster: server %d's death seen by probe read %d: %d modules failed\n", d.victim, reads, tr.FaultSet().Count())

	t, err = traffic(svc, rr, vars, d.lost, 2)
	if err != nil {
		return nil, fmt.Errorf("degraded phase: %w", err)
	}
	if t.lost == 0 {
		return nil, fmt.Errorf("degraded phase: no op touched the %d lost variables", len(probe))
	}
	fmt.Fprintf(d.w, "netcluster: degraded phase: %d ops, refused %d == lost %d (the ops on the %d of %d variables without a majority outside [%d,%d)), the rest committed\n",
		t.ops, t.refused, t.lost, len(probe), len(vars), d.lo, d.hi)
	if err := svc.Close(); err != nil {
		return nil, err
	}
	return rec.TraceSet(), nil
}

// wipe is the self-healing drill: committed values on variables with exactly
// one copy on the victim, the victim killed and restarted with an empty
// store, and the reconnect must route its range through the repair queue:
// the sweep rebuilds and certifies every module of the range
// over the wire, and every committed value reads back exactly.
func (d *drill) wipe() (*consistency.TraceSet, error) {
	var vars []uint64
	for v := uint64(0); v < d.m.NumVars() && len(vars) < wipeVars; v++ {
		if d.onVictim(v) == 1 {
			vars = append(vars, v)
		}
	}
	if len(vars) < 4 {
		return nil, fmt.Errorf("only %d variables have exactly one copy on server %d", len(vars), d.victim)
	}
	col := obs.NewCollector()
	tr, svc, err := d.connect(col)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	defer svc.Close()

	rec := consistency.NewRecorder()
	cr := rec.Run("wipe", consistency.ContractTotalOrder, 1).Client(0)
	ops := make([]shard.BatchOp, len(vars))
	for i, v := range vars {
		ops[i] = shard.BatchOp{Write: true, Var: v, Val: cr.WriteValue()}
	}
	written, _, err := access(svc, cr, ops, nil)
	if err != nil {
		return nil, fmt.Errorf("writing the drill variables: %w", err)
	}

	fs := tr.FaultSet()
	epoch := fs.Epoch()
	if err := d.c.kill(d.victim); err != nil {
		return nil, err
	}
	if _, err := d.awaitEpoch(svc, tr, epoch, vars); err != nil {
		return nil, err
	}
	if err := d.c.restart(d.victim); err != nil {
		return nil, err
	}
	// Until the client reconnects the range is failed; after it, repairing
	// until the sweep certifies it. Reads pump the sweep, and Flush wakes the
	// dispatcher so its idle loop keeps sweeping.
	for i := 0; fs.Count() > 0 || fs.RepairCount() > 0; i++ {
		if time.Now().After(d.deadline) {
			return nil, fmt.Errorf("range still has %d failed and %d repairing modules", fs.Count(), fs.RepairCount())
		}
		if _, err := svc.Read(vars[i%len(vars)]); err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			return nil, err
		}
		if err := svc.Flush(); err != nil {
			return nil, err
		}
	}
	rounds, certified := col.RepairRounds.Load(), col.RepairCertified.Load()
	if certified < int64(d.hi-d.lo) {
		return nil, fmt.Errorf("the wiped server's %d modules were re-admitted with %d certified by repair", d.hi-d.lo, certified)
	}

	for i, v := range vars {
		ops[i] = shard.BatchOp{Var: v}
	}
	read, _, err := access(svc, cr, ops, nil)
	if err != nil {
		return nil, fmt.Errorf("reading back: %w", err)
	}
	for i, v := range vars {
		if read[i] != written[i] {
			return nil, fmt.Errorf("variable %d read %#x after the wipe, want the committed %#x", v, read[i], written[i])
		}
	}
	fmt.Fprintf(d.w, "netcluster: server %d wiped: %d modules rebuilt over the wire in %d repair rounds, %d committed values read back\n",
		d.victim, certified, rounds, len(vars))
	if err := svc.Close(); err != nil {
		return nil, err
	}
	return rec.TraceSet(), nil
}

// tally is what one traffic phase observed, summed over clients.
type tally struct{ ops, lost, refused int }

// traffic runs one phase of the kill drill: each client submits windows of
// ops over vars with AccessBatch, waits for each before the next, and
// records every op on its client's recorder. An op whose variable lost
// reports must be refused with ErrQuorumUnreachable and every other op must
// commit; lost is nil in a healthy phase.
func traffic(svc *shard.Service, rr *consistency.RunRecorder, vars []uint64, lost func(uint64) bool, phase int64) (tally, error) {
	parts := make([]tally, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := rr.Client(c)
			rng := rand.New(rand.NewSource(phase<<32 | int64(c)))
			ops := make([]shard.BatchOp, window)
			for w := 0; w < windows; w++ {
				for i := range ops {
					ops[i] = shard.BatchOp{Var: vars[rng.Intn(len(vars))]}
					if rng.Intn(100) < writePct {
						ops[i].Write, ops[i].Val = true, cr.WriteValue()
					}
				}
				_, refused, err := access(svc, cr, ops, lost)
				parts[c].ops += len(ops)
				parts[c].refused += refused
				for _, op := range ops {
					if lost != nil && lost(op.Var) {
						parts[c].lost++
					}
				}
				if err != nil {
					errs[c] = fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var sum tally
	for _, p := range parts {
		sum.ops += p.ops
		sum.lost += p.lost
		sum.refused += p.refused
	}
	return sum, errors.Join(errs...)
}

// access submits ops as one AccessBatch, waits for it and records every op on
// cr in order, refused ones as failed. An op on a variable lost reports must
// be refused with ErrQuorumUnreachable and every other op must commit; lost
// nil means every op must commit. It returns each op's value (a write's
// own) and how many ops were refused.
func access(svc *shard.Service, cr *consistency.ClientRecorder, ops []shard.BatchOp, lost func(uint64) bool) ([]uint64, int, error) {
	b, err := svc.AccessBatch(ops)
	if err != nil {
		return nil, 0, err
	}
	vals := make([]uint64, len(ops))
	refused := 0
	var first error
	for i, op := range ops {
		val, err := b.Value(i)
		if op.Write {
			val = op.Val
		}
		vals[i] = val
		cr.Record(op.Write, op.Var, val, err != nil)
		if err != nil {
			refused++
		}
		want := lost != nil && lost(op.Var)
		switch {
		case first != nil:
		case want && !errors.Is(err, protocol.ErrQuorumUnreachable):
			first = fmt.Errorf("%s of variable %d, which has no majority outside the dead range, returned %v, want a quorum refusal", opName(op), op.Var, err)
		case !want && err != nil:
			first = fmt.Errorf("%s of variable %d: %w", opName(op), op.Var, err)
		}
	}
	return vals, refused, first
}

func opName(op shard.BatchOp) string {
	if op.Write {
		return "write"
	}
	return "read"
}
