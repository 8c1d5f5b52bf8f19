package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/frontend"
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
// does; it then re-verifies the recorded trace with cmd/consistencycheck).
// JSON output goes to BENCH_PR8.json.
func E22(w io.Writer, o Options) error {
	n, clients, opsPer := 7, 8, 600
	if o.Quick {
		n, clients, opsPer = 5, 4, 250
	}
	const nServers = 4
	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	resolver, err := protocol.CompileMapper(inst.pp, protocol.CompileOptions{})
	if err != nil {
		return err
	}
	nVars := 48
	if !o.Quick {
		nVars = 64
	}
	vars := make([]uint64, nVars)
	for i := range vars {
		vars[i] = uint64(i*7+3) % inst.s.NumVariables
	}
	rec := o.Consistency
	if rec == nil {
		rec = consistency.NewRecorder()
	}
	rep := e22Report{
		Experiment: "e22-net-transport",
		Quick:      o.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       Host(),
		Degree:     n,
		Servers:    nServers,
		Clients:    clients,
		External:   len(o.Servers) > 0,
	}

	fprintf(w, "E22 Networked MPC: q=2 n=%d (%d modules), %d clients, window %d\n",
		n, inst.s.NumModules, clients, e22Window)
	fprintf(w, "%-12s %10s %10s %12s %10s %10s %s\n",
		"cell", "ops", "failed", "ns/op", "ops/sec", "strandrate", "verdict")

	runInproc := o.Transport == "" || o.Transport == "inproc"
	runTCP := o.Transport == "" || o.Transport == "tcp"

	if runInproc {
		svc, err := shard.New(inst.pp, shard.Config{
			Shards:   1,
			Protocol: o.instrument(protocol.Config{Resolver: resolver}),
		})
		if err != nil {
			return err
		}
		row, err := e22Cell(w, o, rec, "inproc", svc, clients, opsPer, vars)
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, row)
	}

	if runTCP {
		addrs := o.Servers
		var local []*netmpc.Server
		if len(addrs) == 0 {
			local, addrs, err = e22Cluster(inst, nServers)
			if err != nil {
				return err
			}
			defer func() {
				for _, sv := range local {
					sv.Close()
				}
			}()
		}
		dial := func(storeID uint32) (*netmpc.Transport, error) {
			return netmpc.Dial(netmpc.Config{
				Servers:      addrs,
				Q:            inst.s.Q,
				N:            uint32(inst.s.Deg),
				Modules:      int64(inst.s.NumModules),
				AddrSpace:    inst.s.NumModules * uint64(inst.s.ModuleSize),
				StoreID:      storeID,
				RoundTimeout: 3 * time.Second,
			})
		}

		// Healthy TCP cell.
		tr, err := dial(1)
		if err != nil {
			return err
		}
		svc, err := shard.New(inst.pp, shard.Config{
			Shards:    1,
			Protocol:  o.instrument(protocol.Config{Resolver: resolver}),
			Transport: func(int) protocol.Transport { return tr },
		})
		if err != nil {
			tr.Close()
			return err
		}
		row, err := e22Cell(w, o, rec, "tcp", svc, clients, opsPer, vars)
		tr.Close()
		if err != nil {
			return err
		}
		row.ServerStats = tr.Stats()
		rep.Rows = append(rep.Rows, row)

		// Kill cell: healthy first half, one server killed, degraded second
		// half gated against the exact stranding bound.
		row, err = e22KillCell(w, o, rec, inst, resolver, dial, local, clients, opsPer, vars)
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, row)
	}
	fprintf(w, "\n")

	if path := o.jsonPath("BENCH_PR8.json"); path != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("e22: writing %s: %w", path, err)
		}
		fprintf(w, "  (wrote %s)\n\n", path)
	}
	return nil
}

const e22Window = 16

type e22Report struct {
	Experiment string   `json:"experiment"`
	Quick      bool     `json:"quick"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Host       HostInfo `json:"host"`
	Degree     int      `json:"degree"`
	Servers    int      `json:"servers"`
	Clients    int      `json:"clients"`
	External   bool     `json:"external_servers"`
	Rows       []e22Row `json:"rows"`
}

type e22Row struct {
	Cell        string  `json:"cell"`
	Ops         int64   `json:"ops"`
	Failed      int64   `json:"failed"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Certified   bool    `json:"certified"`
	DegradedOps int64   `json:"degraded_ops,omitempty"`
	Stranded    int64   `json:"stranded,omitempty"`
	StrandRate  float64 `json:"strand_rate"`
	// ExactRate is the measured post-kill fraction of workload variables
	// with a live majority lost (the enforced expectation); BinomRate is
	// E19's independent-fault binomial reference at the same failed-module
	// fraction.
	ExactRate   float64              `json:"exact_rate,omitempty"`
	BinomRate   float64              `json:"binom_rate,omitempty"`
	Bound       float64              `json:"bound,omitempty"`
	WithinBound bool                 `json:"within_bound"`
	FailedMods  int                  `json:"failed_modules,omitempty"`
	ServerStats []netmpc.ServerStats `json:"server_stats,omitempty"`
}

// e22Cluster launches an in-process loopback memserver cluster.
func e22Cluster(inst *e7Instance, k int) ([]*netmpc.Server, []string, error) {
	servers := make([]*netmpc.Server, 0, k)
	addrs := make([]string, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := netmpc.Range(i, k, int64(inst.s.NumModules))
		sv := netmpc.NewServer(netmpc.ServerConfig{
			Q:         inst.s.Q,
			N:         uint32(inst.s.Deg),
			Modules:   inst.s.NumModules,
			AddrSpace: inst.s.NumModules * uint64(inst.s.ModuleSize),
			RangeLo:   uint64(lo),
			RangeHi:   uint64(hi),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return nil, nil, err
		}
		go sv.Serve(ln)
		servers = append(servers, sv)
		addrs = append(addrs, ln.Addr().String())
	}
	return servers, addrs, nil
}

// e22Cell drives one service with the windowed multi-client workload,
// certifies the recorded trace, and emits the table row. A non-nil failed
// pointer receives the count of ErrQuorumUnreachable-stranded operations
// (healthy cells must see zero).
func e22Cell(w io.Writer, o Options, rec *consistency.Recorder, label string, svc *shard.Service, clients, opsPer int, vars []uint64) (e22Row, error) {
	rr := rec.Run("e22/"+label, consistency.ContractTotalOrder, clients)
	start := time.Now()
	ops, failed, err := e22Drive(svc, rr, clients, opsPer, vars, o.Seed+801)
	if ferr := svc.Flush(); err == nil {
		err = ferr
	}
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return e22Row{}, err
	}
	elapsed := time.Since(start)
	row := e22Row{
		Cell:        label,
		Ops:         ops,
		Failed:      failed,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		WithinBound: failed == 0,
	}
	if failed > 0 {
		return row, fmt.Errorf("e22: healthy cell %q stranded %d ops", label, failed)
	}
	certified, err := e22Certify(rec, "e22/"+label)
	if err != nil {
		return row, err
	}
	row.Certified = certified
	fprintf(w, "%-12s %10d %10d %12.0f %10.0f %10.4f %s\n",
		label, row.Ops, row.Failed, row.NsPerOp, row.OpsPerSec, 0.0, "certified")
	return row, nil
}

// e22Certify checks the labelled run's recorded trace under every mode its
// contract requires, returning an error on violation.
func e22Certify(rec *consistency.Recorder, label string) (bool, error) {
	ts := rec.TraceSet()
	for _, run := range ts.Runs {
		if run.Label != label {
			continue
		}
		for _, mode := range consistency.ModesFor(run.Contract) {
			if r := consistency.Check(run.Clients, mode); !r.OK {
				return false, fmt.Errorf("e22: run %q violated %s: %s", run.Label, mode, r.First().Message)
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("e22: run %q not found in trace set", label)
}

// e22Drive is the windowed async client driver (the e20 pattern): each
// client keeps a window of in-flight futures against the service, records
// every committed operation, and records stranded operations
// (ErrQuorumUnreachable) as failed so the checker drops them. Returns total
// and failed op counts.
func e22Drive(svc *shard.Service, rr *consistency.RunRecorder, clients, opsPerClient int, vars []uint64, seed int64) (int64, int64, error) {
	var wg sync.WaitGroup
	var total, failed int64
	var mu sync.Mutex
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := rr.Client(c)
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			type slot struct {
				fut   *frontend.Future
				write bool
				v     uint64
				val   uint64
			}
			pending := make([]slot, 0, e22Window)
			var done, stranded int64
			drain := func() bool {
				for _, s := range pending {
					got, err := s.fut.Wait()
					done++
					if err != nil {
						if !errors.Is(err, protocol.ErrQuorumUnreachable) {
							errs <- err
							return false
						}
						stranded++
						cr.Record(s.write, s.v, s.val, true)
						continue
					}
					if s.write {
						cr.Record(true, s.v, s.val, false)
					} else {
						cr.Record(false, s.v, got, false)
					}
				}
				pending = pending[:0]
				return true
			}
			flush := func() {
				mu.Lock()
				total += done
				failed += stranded
				mu.Unlock()
			}
			for i := 0; i < opsPerClient; i++ {
				v := vars[rng.Intn(len(vars))]
				var s slot
				var err error
				if rng.Intn(100) < 40 {
					s = slot{write: true, v: v, val: cr.WriteValue()}
					s.fut, err = svc.WriteAsync(v, s.val)
				} else {
					s = slot{v: v}
					s.fut, err = svc.ReadAsync(v)
				}
				if err != nil {
					errs <- err
					flush()
					return
				}
				pending = append(pending, s)
				if len(pending) == e22Window && !drain() {
					flush()
					return
				}
			}
			drain()
			flush()
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return total, failed, err
	default:
	}
	return total, failed, nil
}

// e22KillCell runs the degraded cell: half the workload healthy, then one
// server dies — killed directly for the in-process cluster, by the external
// harness on the marker line otherwise — and the second half runs against
// the survivors. The observed stranding rate is gated against the exact
// post-kill bound.
func e22KillCell(w io.Writer, o Options, rec *consistency.Recorder, inst *e7Instance, resolver *protocol.CompiledResolver, dial func(uint32) (*netmpc.Transport, error), local []*netmpc.Server, clients, opsPer int, vars []uint64) (e22Row, error) {
	tr, err := dial(2)
	if err != nil {
		return e22Row{}, err
	}
	defer tr.Close()
	svc, err := shard.New(inst.pp, shard.Config{
		Shards:    1,
		Protocol:  o.instrument(protocol.Config{Resolver: resolver}),
		Transport: func(int) protocol.Transport { return tr },
	})
	if err != nil {
		return e22Row{}, err
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()

	rr := rec.Run("e22/tcp-kill1", consistency.ContractTotalOrder, clients)
	start := time.Now()
	ops1, failed1, err := e22Drive(svc, rr, clients, opsPer/2, vars, o.Seed+901)
	if err != nil {
		return e22Row{}, err
	}
	if err := svc.Flush(); err != nil {
		return e22Row{}, err
	}
	if failed1 > 0 {
		return e22Row{}, fmt.Errorf("e22: kill cell stranded %d ops before the kill", failed1)
	}

	// Kill one server. In-process clusters kill their own victim; external
	// clusters print the marker and let the harness do it.
	if len(local) > 0 {
		local[1].Close()
	} else {
		fprintf(w, "%s\n", e22KillMarker)
	}
	killDeadline := time.Now().Add(60 * time.Second)
	for tr.FaultSet().Count() == 0 {
		if time.Now().After(killDeadline) {
			return e22Row{}, fmt.Errorf("e22: no server death observed within 60s of the kill marker")
		}
		// Fault detection needs no traffic — the reader goroutine sees the
		// EOF/RST as soon as the peer dies — but poll with a light touch.
		time.Sleep(5 * time.Millisecond)
	}
	failedMods := tr.FaultSet().Count()

	// Exact expectation: the fraction of workload variables whose live
	// copies fell below the majority, computed from the actual fault set
	// through the scheme's Γ map.
	exact := e22ExactStrandRate(inst, tr, vars)
	f := float64(failedMods) / float64(inst.s.NumModules)
	binom := e22BinomRate(inst.s.Copies, inst.s.Majority, f)

	ops2, failed2, err := e22Drive(svc, rr, clients, opsPer-opsPer/2, vars, o.Seed+902)
	if err != nil {
		return e22Row{}, err
	}
	if err := svc.Flush(); err != nil {
		return e22Row{}, err
	}
	if cerr := svc.Close(); cerr != nil {
		return e22Row{}, cerr
	}
	closed = true
	elapsed := time.Since(start)

	rate := float64(failed2) / float64(ops2)
	// Bound: exact expectation + 6σ sampling noise + slack for the var-set
	// dependence between ops (ops on one stranded variable all strand).
	sigma := math.Sqrt(exact * (1 - exact) / float64(ops2))
	bound := exact + 6*sigma + 0.03
	within := rate <= bound

	row := e22Row{
		Cell:        "tcp-kill1",
		Ops:         ops1 + ops2,
		Failed:      failed1 + failed2,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops1+ops2),
		OpsPerSec:   float64(ops1+ops2) / elapsed.Seconds(),
		DegradedOps: ops2,
		Stranded:    failed2,
		StrandRate:  rate,
		ExactRate:   exact,
		BinomRate:   binom,
		Bound:       bound,
		WithinBound: within,
		FailedMods:  failedMods,
		ServerStats: tr.Stats(),
	}
	certified, err := e22Certify(rec, "e22/tcp-kill1")
	if err != nil {
		return row, err
	}
	row.Certified = certified
	verdict := fmt.Sprintf("certified, %d/%d stranded <= bound %.4f (exact %.4f, binom %.4f)", failed2, ops2, bound, exact, binom)
	if !within {
		verdict = fmt.Sprintf("STRANDING ABOVE BOUND: %.4f > %.4f", rate, bound)
	}
	fprintf(w, "%-12s %10d %10d %12.0f %10.0f %10.4f %s\n",
		row.Cell, row.Ops, row.Failed, row.NsPerOp, row.OpsPerSec, rate, verdict)
	if !within {
		return row, fmt.Errorf("e22: stranding rate %.4f exceeds bound %.4f", rate, bound)
	}
	return row, nil
}

// e22ExactStrandRate computes the fraction of workload variables whose live
// copy count is below the majority under the transport's current fault set.
func e22ExactStrandRate(inst *e7Instance, tr *netmpc.Transport, vars []uint64) float64 {
	fs := tr.FaultSet()
	strandedVars := 0
	var buf []uint64
	for _, v := range vars {
		buf = inst.s.VarModules(buf[:0], inst.idx.Mat(v))
		live := 0
		for _, m := range buf {
			if !fs.Failed(m) {
				live++
			}
		}
		if live < inst.s.Majority {
			strandedVars++
		}
	}
	return float64(strandedVars) / float64(len(vars))
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
