package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// e22KillMarker is the stdout line E22 prints when its degraded cell is
// ready for an external harness (cmd/netcluster) to kill one memserver.
// The harness matches it verbatim; keep the two in sync.
const e22KillMarker = "e22: degraded phase armed -- kill one memserver now"

// E22 measures the networked MPC transport (internal/netmpc): the same
// windowed multi-client workload is driven through three cells —
//
//	inproc     the in-process machine, today's default (the baseline);
//	tcp        a loopback cluster of 4 memservers, full constructive-map
//	           clients fanning bid rounds out over TCP;
//	tcp-kill1  the same cluster with one server killed mid-run, measuring
//	           the degraded regime where a quarter of the modules fail at
//	           once and the PR 5 quorum re-selection takes over.
//
// Every cell's client traces are recorded and certified with the black-box
// consistency checker (total order, S=1): the transport must not merely be
// fast, it must be indistinguishable from local memory up to stranding.
//
// The kill cell self-gates: the observed op-stranding rate must stay below
// a bound computed from the actual post-kill fault set — the exact fraction
// of workload variables whose live copies fell below their majority, plus
// 6σ sampling noise and slack. The binomial reference rate from E19
// (P(Bin(copies, f) ≥ copies−majority+1) for f the failed-module fraction)
// is reported next to it; the exact bound is the one enforced, because a
// contiguous dead range need not match the independent-fault binomial.
//
// With -servers the TCP cells run against external memservers and the kill
// cell prints a marker line for the harness to kill one (cmd/netcluster
// does; every gate fails this run, so the harness needs only its exit status,
// and it re-verifies the recorded trace with cmd/consistencycheck).
func E22(w io.Writer, o Options) error {
	f, err := newE22Fixture(o)
	if err != nil {
		return err
	}

	fprintf(w, "E22 Networked MPC: q=2 n=%d (%d modules), %d clients, window %d\n",
		f.inst.s.Deg, f.inst.s.NumModules, f.clients, e22Window)
	fprintf(w, "%-12s %10s %10s %12s %10s %10s %s\n",
		"cell", "ops", "failed", "ns/op", "ops/sec", "strandrate", "verdict")

	if o.Transport == "" || o.Transport == "inproc" {
		svc, err := f.service(false, protocol.Config{}, nil)
		if err != nil {
			return err
		}
		if err := f.healthyCell(w, "inproc", svc); err != nil {
			return err
		}
	}

	if o.Transport == "" || o.Transport == "tcp" {
		local, addrs, err := f.cluster()
		if err != nil {
			return err
		}
		defer func() {
			for _, sv := range local {
				sv.Close()
			}
		}()

		// Healthy TCP cell.
		tr, err := f.dial(addrs, 1, 0, 0)
		if err != nil {
			return err
		}
		svc, err := f.service(false, protocol.Config{}, tr)
		if err != nil {
			tr.Close()
			return err
		}
		err = f.healthyCell(w, "tcp", svc)
		tr.Close()
		if err != nil {
			return err
		}

		// Kill cell: healthy first half, one server killed, degraded second
		// half gated against the exact stranding bound.
		if err := f.killCell(w, addrs, local); err != nil {
			return err
		}
	}
	fprintf(w, "\n")
	return nil
}

const (
	e22Window  = 16
	e22Servers = 4
)

// e22Fixture is the set-up E22 and E24 share: the scheme and its compiled
// table, the client shape, the workload's variable set, and the recorder every
// cell's client trace goes to.
type e22Fixture struct {
	o               Options
	inst            *e7Instance
	resolver        *protocol.CompiledResolver
	clients, opsPer int
	vars            []uint64
	rec             *consistency.Recorder
}

func newE22Fixture(o Options) (*e22Fixture, error) {
	n, nVars := 7, 64
	f := &e22Fixture{o: o, clients: 8, opsPer: 600, rec: o.Consistency}
	if o.Quick {
		n, nVars = 5, 48
		f.clients, f.opsPer = 4, 250
	}
	var err error
	if f.inst, err = newE7Instance(n); err != nil {
		return nil, err
	}
	if f.resolver, err = protocol.CompileMapper(f.inst.pp, protocol.CompileOptions{}); err != nil {
		return nil, err
	}
	f.vars = make([]uint64, nVars)
	for i := range f.vars {
		f.vars[i] = uint64(i*7+3) % f.inst.s.NumVariables
	}
	if f.rec == nil {
		f.rec = consistency.NewRecorder()
	}
	return f, nil
}

// service builds a cell's one-shard service: the fixture's table and the
// Options' hooks on top of pcfg, per-shard collectors when observe is set
// (repair accounting flows through them), and rounds over tr unless it is nil.
func (f *e22Fixture) service(observe bool, pcfg protocol.Config, tr *netmpc.Transport) (*shard.Service, error) {
	pcfg.Resolver = f.resolver
	cfg := shard.Config{Shards: 1, Observe: observe, Protocol: f.o.instrument(pcfg)}
	if tr != nil {
		cfg.Transport = func(int) protocol.Transport { return tr }
	}
	return shard.New(f.inst.pp, cfg)
}

// server builds memserver i of k over the fixture's scheme.
func (f *e22Fixture) server(i, k int) *netmpc.Server {
	s := f.inst.s
	lo, hi := netmpc.Range(i, k, int64(s.NumModules))
	return netmpc.NewServer(netmpc.ServerConfig{
		Q:         s.Q,
		N:         uint32(s.Deg),
		Modules:   s.NumModules,
		AddrSpace: s.NumModules * uint64(s.ModuleSize),
		RangeLo:   uint64(lo),
		RangeHi:   uint64(hi),
	})
}

// cluster returns the memserver addresses the TCP cells dial: the external
// ones of Options.Servers, or those of an in-process loopback cluster it
// launches, whose servers are returned for the caller to kill and close.
func (f *e22Fixture) cluster() ([]*netmpc.Server, []string, error) {
	if len(f.o.Servers) > 0 {
		return nil, f.o.Servers, nil
	}
	servers := make([]*netmpc.Server, 0, e22Servers)
	addrs := make([]string, 0, e22Servers)
	for i := 0; i < e22Servers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return nil, nil, err
		}
		sv := f.server(i, e22Servers)
		go sv.Serve(ln)
		servers = append(servers, sv)
		addrs = append(addrs, ln.Addr().String())
	}
	return servers, addrs, nil
}

// dial connects a transport with its own store namespace to the cluster;
// zero reconnect bounds leave netmpc's defaults.
func (f *e22Fixture) dial(addrs []string, storeID uint32, reconnectMin, reconnectMax time.Duration) (*netmpc.Transport, error) {
	s := f.inst.s
	return netmpc.Dial(netmpc.Config{
		Servers:      addrs,
		Q:            s.Q,
		N:            uint32(s.Deg),
		Modules:      int64(s.NumModules),
		AddrSpace:    s.NumModules * uint64(s.ModuleSize),
		StoreID:      storeID,
		RoundTimeout: 3 * time.Second,
		ReconnectMin: reconnectMin,
		ReconnectMax: reconnectMax,
	})
}

// drive runs the cells' windowed closed loop over the workload's variables:
// each client keeps a window of in-flight futures against the service, records
// every committed operation, and records refused operations as failed so the
// checker drops them. tolerate is the class of refusals the cell allows:
// protocol.ErrQuorumUnreachable in E22, protocol.ErrIncomplete in E24, where
// repair can hold a quorum up as well.
func (f *e22Fixture) drive(svc *shard.Service, rr *consistency.RunRecorder, opsPer int, seed int64, tolerate error) (tally, error) {
	d := driver{window: e22Window, tolerate: tolerate, rec: rr}
	return d.drive(svc, sampledOps(rr, f.clients, opsPer, f.vars, f.o.Seed+seed, 7919))
}

// healthyCell drives one service with the windowed multi-client workload,
// certifies the recorded trace, and emits the table row. It must strand
// nothing.
func (f *e22Fixture) healthyCell(w io.Writer, label string, svc *shard.Service) error {
	rr := f.rec.Run("e22/"+label, consistency.ContractTotalOrder, f.clients)
	start := time.Now()
	t, err := f.drive(svc, rr, f.opsPer, 801, protocol.ErrQuorumUnreachable)
	if ferr := svc.Flush(); err == nil {
		err = ferr
	}
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if t.stranded > 0 {
		return fmt.Errorf("e22: healthy cell %q stranded %d ops", label, t.stranded)
	}
	if err := f.certify("e22/" + label); err != nil {
		return err
	}
	fprintf(w, "%-12s %10d %10d %12.0f %10.0f %10.4f %s\n",
		label, t.ops, t.stranded, float64(elapsed.Nanoseconds())/float64(t.ops), float64(t.ops)/elapsed.Seconds(), 0.0, "certified")
	return nil
}

// certify checks the labelled run's recorded trace under every mode its
// contract requires, returning an error on violation.
func (f *e22Fixture) certify(label string) error {
	for _, run := range f.rec.TraceSet().Runs {
		if run.Label != label {
			continue
		}
		for _, mode := range consistency.ModesFor(run.Contract) {
			if r := consistency.Check(run.Clients, mode); !r.OK {
				return fmt.Errorf("e22: run %q violated %s: %s", run.Label, mode, r.First().Message)
			}
		}
		return nil
	}
	return fmt.Errorf("e22: run %q not found in trace set", label)
}

// killCell runs the degraded cell: half the workload healthy, then one
// server dies — killed directly for the in-process cluster, by the external
// harness on the marker line otherwise — and the second half runs against
// the survivors. The observed stranding rate is gated against the exact
// post-kill bound.
func (f *e22Fixture) killCell(w io.Writer, addrs []string, local []*netmpc.Server) error {
	inst, opsPer := f.inst, f.opsPer
	tr, err := f.dial(addrs, 2, 0, 0)
	if err != nil {
		return err
	}
	defer tr.Close()
	svc, err := f.service(false, protocol.Config{}, tr)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()

	rr := f.rec.Run("e22/tcp-kill1", consistency.ContractTotalOrder, f.clients)
	start := time.Now()
	t1, err := f.drive(svc, rr, opsPer/2, 901, protocol.ErrQuorumUnreachable)
	if err != nil {
		return err
	}
	if err := svc.Flush(); err != nil {
		return err
	}
	if t1.stranded > 0 {
		return fmt.Errorf("e22: kill cell stranded %d ops before the kill", t1.stranded)
	}

	// Kill one server. In-process clusters kill their own victim; external
	// clusters print the marker and let the harness do it.
	healthy := tr.FaultSet().Epoch()
	if len(local) > 0 {
		local[1].Close()
	} else {
		fprintf(w, "%s\n", e22KillMarker)
	}
	if err := f.probeUntilDeath(svc, tr.FaultSet(), healthy, f.vars, time.Now().Add(60*time.Second)); err != nil {
		return err
	}
	failedMods := tr.FaultSet().Count()

	// Exact expectation: the fraction of workload variables whose live
	// copies fell below the majority, computed from the actual fault set
	// through the scheme's Γ map.
	exact := exactStrandRate(inst, tr.FaultSet(), f.vars)
	binom := e22BinomRate(inst.s.Copies, inst.s.Majority, float64(failedMods)/float64(inst.s.NumModules))

	t2, err := f.drive(svc, rr, opsPer-opsPer/2, 902, protocol.ErrQuorumUnreachable)
	if err != nil {
		return err
	}
	if err := svc.Flush(); err != nil {
		return err
	}
	if cerr := svc.Close(); cerr != nil {
		return cerr
	}
	closed = true
	elapsed := time.Since(start)

	rate := float64(t2.stranded) / float64(t2.ops)
	bound := strandBound(exact, t2.ops)
	within := rate <= bound
	ops := t1.ops + t2.ops
	if err := f.certify("e22/tcp-kill1"); err != nil {
		return err
	}
	verdict := fmt.Sprintf("certified, %d/%d stranded <= bound %.4f (exact %.4f, binom %.4f)", t2.stranded, t2.ops, bound, exact, binom)
	if !within {
		verdict = fmt.Sprintf("STRANDING ABOVE BOUND: %.4f > %.4f", rate, bound)
	}
	fprintf(w, "%-12s %10d %10d %12.0f %10.0f %10.4f %s\n",
		"tcp-kill1", ops, t2.stranded, float64(elapsed.Nanoseconds())/float64(ops), float64(ops)/elapsed.Seconds(), rate, verdict)
	if !within {
		return fmt.Errorf("e22: stranding rate %.4f exceeds bound %.4f", rate, bound)
	}
	return nil
}

// probeUntilDeath waits for a server of the cluster to die — killed by the caller
// or, on the marker line, by the external harness — by reading probe until the
// fault set has moved on from the epoch taken before the kill: the transport
// finds a death at the round that bids at the dead server, not while idle, so
// probe needs a variable with a copy on the victim's range. The epoch, not
// the failed count, is what is watched, because a victim the harness restarts
// may be back before anyone looks. The reads are not recorded, and the ones
// the death refuses are the expected outcome.
func (f *e22Fixture) probeUntilDeath(svc *shard.Service, fs *mpc.FaultSet, healthy uint64, probe []uint64, deadline time.Time) error {
	for i := 0; fs.Epoch() == healthy; i++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("probe reads of %d variables met no server death within the deadline", len(probe))
		}
		if _, err := svc.Read(probe[i%len(probe)]); err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// strandBound is the stranding gate of E22's kill cell and E24's repair-off
// cell: the exact Γ-map expectation plus 6σ sampling noise over ops operations
// plus slack for the dependence between ops (operations on one stranded
// variable all strand).
func strandBound(exact float64, ops int64) float64 {
	sigma := math.Sqrt(exact * (1 - exact) / float64(ops))
	return exact + 6*sigma + 0.03
}

// e22BinomRate is E19's independent-fault reference: the probability that a
// variable with the given copy count loses enough copies for its majority
// when each module fails independently with probability f.
func e22BinomRate(copies, majority int, f float64) float64 {
	need := copies - majority + 1 // dead copies that kill the quorum
	p := 0.0
	for k := need; k <= copies; k++ {
		p += float64(binomCoeff(copies, k)) * math.Pow(f, float64(k)) * math.Pow(1-f, float64(copies-k))
	}
	return p
}

func binomCoeff(n, k int) int64 {
	c := int64(1)
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
	}
	return c
}
