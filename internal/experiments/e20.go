package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// E20 measures the consistency-auditing layer added with the black-box PRAM
// checker (internal/consistency) in three parts:
//
// Part A prices the offline checker itself: sequentially consistent traces
// of growing length are generated and certified under both modes, so the
// table shows how the constraint-graph closure scales with trace size —
// the cost of auditing a smembench -trace dump offline.
//
// Part B prices the always-on sampling audit: the sharded service is driven
// with identical precomputed client streams at audit rates {off, 1%, 100%},
// and the overhead column reports the throughput cost relative to the
// unaudited baseline. The run self-checks: any audit violation fails the
// experiment.
//
// Part C records real client traces — S=1 (total-order contract) and S=4
// (per-variable contract), plus a degraded cell where a victim variable's
// modules fail mid-run and its stranded operations are recorded as failed —
// and certifies every run with
// the trace checker under the contract's required modes. With smembench
// -trace the recorded TraceSet is embedded in the dump for
// cmd/consistencycheck to re-verify offline.
func E20(w io.Writer, o Options) error {
	if err := e20CheckerCost(w, o); err != nil {
		return err
	}
	if err := e20SamplingOverhead(w, o); err != nil {
		return err
	}
	return e20RecordedRuns(w, o)
}

// e20SC generates a sequentially consistent trace the same way the package's
// property tests do: a random global interleaving against one store, with
// per-client unique write values.
func e20SC(rng *rand.Rand, clients, opsPerClient, vars int) consistency.Trace {
	tr := make(consistency.Trace, clients)
	store := make(map[uint64]uint64, vars)
	seq := make([]uint64, clients)
	remaining := make([]int, clients)
	live := 0
	for c := range remaining {
		remaining[c] = opsPerClient
		if opsPerClient > 0 {
			live++
		}
	}
	for live > 0 {
		c := rng.Intn(clients)
		if remaining[c] == 0 {
			continue
		}
		v := uint64(rng.Intn(vars))
		if rng.Intn(100) < 40 {
			seq[c]++
			val := uint64(c+1)<<40 | seq[c]
			store[v] = val
			tr[c] = append(tr[c], consistency.Op{Write: true, Var: v, Val: val})
		} else {
			tr[c] = append(tr[c], consistency.Op{Var: v, Val: store[v]})
		}
		if remaining[c]--; remaining[c] == 0 {
			live--
		}
	}
	return tr
}

// e20CheckerCost is Part A: offline checker cost vs trace length.
func e20CheckerCost(w io.Writer, o Options) error {
	const clients, vars = 4, 64
	lengths := []int{500, 2000, 8000}
	if o.Quick {
		lengths = []int{250, 1000}
	}
	rng := o.Rng()
	fprintf(w, "E20a Offline checker cost (SC traces, %d clients, %d vars)\n", clients, vars)
	fprintf(w, "%8s %-14s %10s %12s\n", "ops", "mode", "ms", "ops/sec")
	for _, total := range lengths {
		tr := e20SC(rng, clients, total/clients, vars)
		for _, mode := range []consistency.Mode{consistency.ModePRAM, consistency.ModePerVariable} {
			start := time.Now()
			r := consistency.Check(tr, mode)
			elapsed := time.Since(start)
			if !r.OK {
				return fmt.Errorf("e20: checker rejected an SC trace (%s): %+v", mode, r.First())
			}
			ms := float64(elapsed.Nanoseconds()) / 1e6
			ops := float64(tr.Ops())
			fprintf(w, "%8d %-14s %10.2f %12.0f\n", tr.Ops(), mode, ms, ops/elapsed.Seconds())
		}
	}
	fprintf(w, "  (constraint-graph closure with var-grouped bitset reachability;\n")
	fprintf(w, "   the PRAM mode builds one view per reading client, per-variable one\n")
	fprintf(w, "   view per variable, so per-variable is cheaper on wide traces.)\n\n")
	return nil
}

// e20SamplingOverhead is Part B: throughput cost of the always-on sampling
// audit at rates {off, 1%, 100%} on the sharded service.
func e20SamplingOverhead(w io.Writer, o Options) error {
	n := 7
	clients, totalOps := 8, 48000
	shards := 4
	if o.Quick {
		n = 5
		clients, totalOps = 4, 4000
		shards = 2
	}
	opsPer := totalOps / clients
	inst, err := newE7Instance(n)
	if err != nil {
		return err
	}
	resolver, err := protocol.CompileMapper(inst.pp, protocol.CompileOptions{})
	if err != nil {
		return err
	}
	ops := clientWorkload{stream: func(rng *rand.Rand) []uint64 {
		return workload.HotSpot(rng, inst.s.NumVariables, opsPer, 16, 0.5)
	}}.ops(clients, o.Seed+20)
	d := driver{window: 64}

	rates := []float64{0, 0.01, 1.0}

	fprintf(w, "E20b Sampling-audit overhead (S=%d, %d clients, %d ops/run)\n", shards, clients, totalOps)
	fprintf(w, "%8s %10s %10s %10s\n", "rate", "ns/op", "sampled", "overhead")
	// One service per rate, measured in round-robin repetitions: slow
	// host drift (frequency scaling, container neighbors) hits every
	// rate's sample set equally instead of biasing whichever rate ran
	// last, and the median per rate discards the stragglers.
	svcs := make([]*shard.Service, len(rates))
	elapsedNs := make([][]int64, len(rates))
	for i, rate := range rates {
		var svc *shard.Service
		svc, err = shard.New(inst.pp, shard.Config{
			Shards:   shards,
			Protocol: o.instrument(protocol.Config{Resolver: resolver}),
			Audit:    consistency.AuditConfig{Rate: rate},
		})
		if err != nil {
			break
		}
		svcs[i] = svc
		if _, err = d.drive(svc, warmup(ops)); err != nil {
			break
		}
	}
	if err != nil {
		for _, svc := range svcs {
			if svc != nil {
				_ = svc.Close()
			}
		}
		return err
	}
	reps := 7
	if o.Quick {
		reps = 3
	}
	for r := 0; r < reps && err == nil; r++ {
		for i := range rates {
			runtime.GC()
			start := time.Now()
			_, err = d.drive(svcs[i], ops)
			if ferr := svcs[i].Flush(); err == nil {
				err = ferr
			}
			if err != nil {
				break
			}
			elapsedNs[i] = append(elapsedNs[i], time.Since(start).Nanoseconds())
		}
	}
	var baseNs float64
	for i, rate := range rates {
		ast := svcs[i].AuditStats()
		if cerr := svcs[i].Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		// Self-check: the service under measurement must never trip its
		// own auditor.
		if ast.Violations != 0 {
			return fmt.Errorf("e20: sampling audit reported %d violations at rate %g", ast.Violations, rate)
		}
		ns := elapsedNs[i]
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		nsPerOp := float64(ns[len(ns)/2]) / float64(totalOps)
		if rate == 0 {
			baseNs = nsPerOp
		}
		overhead := 100 * (nsPerOp - baseNs) / baseNs
		fprintf(w, "%8.2f %10.1f %10d %9.1f%%\n", rate, nsPerOp, ast.Sampled, overhead)
	}
	fprintf(w, "  (overhead is vs the rate-0 baseline; the audit\n")
	fprintf(w, "   runs on the flush path — a shadow-store probe per committed batch\n")
	fprintf(w, "   entry on sampled variables, allocation-free. Negative overheads are\n")
	fprintf(w, "   run-to-run noise.)\n\n")
	return nil
}

// e20RecordedRuns is Part C: record real client traces across the
// dispatcher × contract matrix (plus a degraded cell with stranded
// operations) and certify each with the trace checker.
func e20RecordedRuns(w io.Writer, o Options) error {
	rec := o.Consistency
	if rec == nil {
		rec = consistency.NewRecorder()
	}
	clients, opsPer := 4, 300
	if o.Quick {
		opsPer = 100
	}
	inst, err := newE7Instance(5)
	if err != nil {
		return err
	}
	resolver, err := protocol.CompileMapper(inst.pp, protocol.CompileOptions{})
	if err != nil {
		return err
	}
	vars := make([]uint64, 48)
	for i := range vars {
		vars[i] = uint64(i)
	}

	cells := []struct {
		label    string
		shards   int
		contract consistency.Contract
	}{
		{"S=1", 1, consistency.ContractTotalOrder},
		{"S=4", 4, consistency.ContractPerVariable},
	}

	// record drives windowed traffic over vars, recording every operation in
	// program order. Operations on the degraded cell's victim may be refused
	// with ErrQuorumUnreachable and are recorded as failed; any other error
	// fails the drive.
	record := func(svc *shard.Service, rr *consistency.RunRecorder, opsPer int, vars []uint64, seed int64) error {
		d := driver{window: 16, tolerate: protocol.ErrQuorumUnreachable, rec: rr}
		_, err := d.drive(svc, sampledOps(rr, clients, opsPer, vars, seed, 6151))
		return err
	}

	fprintf(w, "E20c Recorded traces, certified by the black-box checker\n")
	fprintf(w, "%-28s %-14s %8s %8s %10s\n", "run", "contract", "ops", "dropped", "verdict")
	verify := func(run consistency.Run) error {
		for _, mode := range consistency.ModesFor(run.Contract) {
			r := consistency.Check(run.Clients, mode)
			verdict := "certified/" + mode.String()
			if !r.OK {
				verdict = "VIOLATED/" + mode.String()
			}
			fprintf(w, "%-28s %-14s %8d %8d %s\n", run.Label, run.Contract, r.OpsChecked, r.DroppedFailed, verdict)
			if !r.OK {
				return fmt.Errorf("e20: recorded run %q violated %s: %s", run.Label, mode, r.First().Message)
			}
		}
		return nil
	}

	for _, cell := range cells {
		svc, err := shard.New(inst.pp, shard.Config{
			Shards:   cell.shards,
			Protocol: o.instrument(protocol.Config{Resolver: resolver}),
		})
		if err != nil {
			return err
		}
		rr := rec.Run(cell.label, cell.contract, clients)
		err = record(svc, rr, opsPer, vars, o.Seed+201)
		if ferr := svc.Flush(); err == nil {
			err = ferr
		}
		if cerr := svc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		ts := rec.TraceSet()
		if err := verify(ts.Runs[len(ts.Runs)-1]); err != nil {
			return err
		}
	}

	// Degraded cell: fail every module of a victim variable mid-run (no
	// retry), so its operations strand with ErrQuorumUnreachable and are
	// recorded as failed; healthy variables (live majority throughout) keep
	// committing. The checker must drop the stranded ops and still certify.
	fs := mpc.NewFaultSet()
	svc, err := shard.New(inst.pp, shard.Config{
		Shards:   2,
		MaxBatch: 16,
		Protocol: o.instrument(protocol.Config{
			Resolver: resolver,
			NewMachine: func(mcfg mpc.Config) (protocol.Machine, error) {
				return mpc.NewFailingShared(mcfg, fs)
			},
		}),
	})
	if err != nil {
		return err
	}
	victim := uint64(10)
	vmods := inst.s.VarModules(nil, inst.idx.Mat(victim))
	failed := map[uint64]bool{}
	for _, m := range vmods {
		failed[m] = true
	}
	var healthy []uint64
	var scratch []uint64
	for v := uint64(0); len(healthy) < 12; v++ {
		if v == victim {
			continue
		}
		live := 0
		scratch = inst.s.VarModules(scratch[:0], inst.idx.Mat(v))
		for _, m := range scratch {
			if !failed[m] {
				live++
			}
		}
		if live >= inst.s.Majority {
			healthy = append(healthy, v)
		}
	}
	rr := rec.Run("S=2/degraded", consistency.ContractPerVariable, clients)
	err = record(svc, rr, opsPer/2, append([]uint64{victim}, healthy...), o.Seed+202)
	if err == nil {
		for _, m := range vmods {
			fs.Fail(m)
		}
		err = record(svc, rr, opsPer/2, append([]uint64{victim}, healthy...), o.Seed+203)
	}
	if ferr := svc.Flush(); err == nil {
		err = ferr
	}
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	ts := rec.TraceSet()
	if err := verify(ts.Runs[len(ts.Runs)-1]); err != nil {
		return err
	}
	fprintf(w, "  (the degraded run strands the victim variable's operations with the\n")
	fprintf(w, "   quorum verdict; the checker drops failed ops — resurrecting any\n")
	fprintf(w, "   failed write whose value a later read returned — and certifies the\n")
	fprintf(w, "   surviving history under the per-variable contract.)\n\n")
	return nil
}
