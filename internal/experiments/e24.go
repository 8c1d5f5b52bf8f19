package experiments

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/mpc"
	"detshmem/internal/netmpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// e24DrillMarker is the stdout line E24's TCP drill prints when it is ready
// for an external harness (cmd/netcluster) to SIGKILL one memserver and
// restart it — wiped, fresh store generation — on the same address. The
// harness matches it verbatim; keep the two in sync.
const e24DrillMarker = "e24: repair drill armed -- kill one memserver now and restart it wiped on the same address"

// e24Cadence is the churn cadence: how long each module stays failed before
// it is re-admitted through the repair queue.
const e24Cadence = 100 * time.Microsecond

// E24 measures the self-healing repair subsystem (PR 10) under module
// churn. Four cells:
//
//	baseline    no faults — the rounds-per-op reference;
//	repair-on   continuous Fail → RecoverPending churn at a 100µs cadence.
//	            Every re-admitted module is rebuilt by the repair sweep
//	            (pumped by batches and the dispatcher's idle loop) before it
//	            counts toward read quorums again. Gates: zero stranded
//	            operations, the backlog fully drained after the churn stops,
//	            and normal-traffic round inflation over the baseline within
//	            1.10× (reported but not gated at quick scale, where the
//	            wall-clock churn makes the ratio a property of the scheduler);
//	repair-off  the counterfactual: the same workload while failed modules
//	            accumulate and nothing repairs them. The observed stranding
//	            is gated against the exact Γ-map bound (the fraction of
//	            workload variables whose live copies fell below their
//	            majority, plus 6σ sampling noise and slack), with the
//	            independent-fault binomial reference reported next to it;
//	tcp-drill   (transport tcp) the wipe-restart drill over a loopback
//	            memserver cluster: committed values are written, one server
//	            is killed and restarted with an empty store, the
//	            generation-token handshake routes its range through the
//	            repair queue instead of silently re-admitting zeroed cells,
//	            the sweep rebuilds every lost copy over the wire, and every
//	            committed value must read back exactly.
//
// Every cell's client trace is recorded and certified with the black-box
// consistency checker, and every gate fails the run: cmd/netcluster needs
// only the exit status.
func E24(w io.Writer, o Options) error {
	f, err := newE22Fixture(o)
	if err != nil {
		return err
	}

	fprintf(w, "E24 Self-healing repair: q=2 n=%d (%d modules), %d clients, churn cadence %v\n",
		f.inst.s.Deg, f.inst.s.NumModules, f.clients, e24Cadence)
	fprintf(w, "%-12s %10s %9s %9s %10s %10s %s\n",
		"cell", "ops", "stranded", "blocked", "rounds/op", "strandrate", "verdict")

	if o.Transport == "" || o.Transport == "inproc" {
		baseRounds, err := e24BaselineCell(w, f)
		if err != nil {
			return err
		}
		if err := e24ChurnCell(w, f, baseRounds); err != nil {
			return err
		}
		if err := e24AccumulateCell(w, f); err != nil {
			return err
		}
	}
	if o.Transport == "" || o.Transport == "tcp" {
		if err := e24DrillCell(w, f); err != nil {
			return err
		}
	}
	fprintf(w, "\n")
	return nil
}

// e24Service builds the one-shard service every in-process cell uses, over
// the shared fault set when the cell has one.
func e24Service(f *e22Fixture, fs *mpc.FaultSet) (*shard.Service, error) {
	var pcfg protocol.Config
	if fs != nil {
		pcfg.NewMachine = func(mcfg mpc.Config) (protocol.Machine, error) {
			return mpc.NewFailingShared(mcfg, fs)
		}
		pcfg.FaultAttempts = 64
	}
	return f.service(true, pcfg, nil)
}

// e24DrainRepair drives light traffic until the fault set's repair backlog
// is empty: batches pump a repair step each, and Flush wakes any parked
// dispatcher so its idle loop keeps sweeping.
func e24DrainRepair(svc *shard.Service, fs *mpc.FaultSet, probe uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for fs.RepairCount() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("e24: repair backlog stuck at %d", fs.RepairCount())
		}
		if _, err := svc.Read(probe); err != nil && !errors.Is(err, protocol.ErrIncomplete) {
			return err
		}
		if err := svc.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// e24RepairCounters sums the per-shard collectors' repair accounting.
func e24RepairCounters(svc *shard.Service) (rounds, certified int64) {
	for i := 0; i < svc.Shards(); i++ {
		snap := svc.Collector(i).Snapshot()
		rounds += snap["repair_rounds_total"]
		certified += snap["repair_certified_total"]
	}
	return rounds, certified
}

// e24BaselineCell is the no-fault reference: the rounds-per-op it returns
// anchors the repair-on cell's inflation gate.
func e24BaselineCell(w io.Writer, f *e22Fixture) (float64, error) {
	svc, err := e24Service(f, nil)
	if err != nil {
		return 0, err
	}
	rr := f.rec.Run("e24/baseline", consistency.ContractTotalOrder, f.clients)
	t, err := f.drive(svc, rr, f.opsPer, 1001, protocol.ErrIncomplete)
	if ferr := svc.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		svc.Close()
		return 0, err
	}
	st := svc.Stats()
	if cerr := svc.Close(); cerr != nil {
		return 0, cerr
	}
	if t.stranded+t.blocked > 0 {
		return 0, fmt.Errorf("e24: baseline cell failed %d ops", t.stranded+t.blocked)
	}
	if err := f.certify("e24/baseline"); err != nil {
		return 0, err
	}
	roundsPerOp := float64(st.Total.TotalRounds) / float64(st.Total.OpsIn)
	fprintf(w, "%-12s %10d %9d %9d %10.2f %10.4f %s\n",
		"baseline", t.ops, int64(0), int64(0), roundsPerOp, 0.0, "certified")
	return roundsPerOp, nil
}

// e24ChurnCell is the tentpole cell: continuous Fail → RecoverPending churn
// with the repair subsystem rebuilding every re-admitted module before it
// rejoins read quorums. Nothing may strand, the backlog must drain once the
// storm stops, and normal traffic must not pay more than 10% extra rounds.
func e24ChurnCell(w io.Writer, f *e22Fixture, baseRounds float64) error {
	fs := mpc.NewFaultSet()
	svc, err := e24Service(f, fs)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		m := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.Fail(m)
			time.Sleep(e24Cadence)
			fs.RecoverPending(m)
			m = (m + 13) % f.inst.s.NumModules
		}
	}()

	rr := f.rec.Run("e24/repair-on", consistency.ContractTotalOrder, f.clients)
	t, err := f.drive(svc, rr, f.opsPer, 1002, protocol.ErrIncomplete)
	ops, stranded, blocked := t.ops, t.stranded, t.blocked
	close(stop)
	churn.Wait()
	if ferr := svc.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	// Storm over: re-admit anything still failed and drain the backlog.
	for _, m := range fs.Modules() {
		fs.RecoverPending(m)
	}
	if err := e24DrainRepair(svc, fs, f.vars[0], 60*time.Second); err != nil {
		return err
	}
	st := svc.Stats()
	repairRounds, repairedMods := e24RepairCounters(svc)
	if cerr := svc.Close(); cerr != nil {
		return cerr
	}
	closed = true

	roundsPerOp := float64(st.Total.TotalRounds) / float64(st.Total.OpsIn)
	inflation := roundsPerOp / baseRounds
	// The churn is paced by the wall clock, so at quick scale (a few
	// thousand ops) how much of it lands inside the measured window is up to
	// the scheduler: the inflation is reported there but gates only a
	// full-scale run. The invariants — nothing stranded, backlog drained,
	// trace certified — gate both.
	inflated := inflation > 1.10 && !f.o.Quick
	if err := f.certify("e24/repair-on"); err != nil {
		return err
	}
	verdict := fmt.Sprintf("certified, repaired %d modules in %d rounds, inflation %.3fx", repairedMods, repairRounds, inflation)
	if stranded > 0 {
		verdict = fmt.Sprintf("STRANDED %d OPS WITH REPAIR ON", stranded)
	} else if inflated {
		verdict = fmt.Sprintf("ROUND INFLATION %.3fx ABOVE 1.10x", inflation)
	}
	fprintf(w, "%-12s %10d %9d %9d %10.2f %10.4f %s\n",
		"repair-on", ops, stranded, blocked, roundsPerOp, float64(stranded)/float64(ops), verdict)
	if stranded > 0 || inflated {
		return fmt.Errorf("e24: repair-on cell out of bounds: %s", verdict)
	}
	return nil
}

// e24AccumulateCell is the counterfactual: failures accumulate mid-run and
// nothing repairs them, so stranding converges to the exact Γ-map rate —
// the regime PR 10 exists to eliminate.
func e24AccumulateCell(w io.Writer, f *e22Fixture) error {
	inst, opsPer, vars := f.inst, f.opsPer, f.vars
	fs := mpc.NewFaultSet()
	svc, err := e24Service(f, fs)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()

	rr := f.rec.Run("e24/repair-off", consistency.ContractTotalOrder, f.clients)
	t1, err := f.drive(svc, rr, opsPer/2, 1003, protocol.ErrIncomplete)
	if err != nil {
		return err
	}
	if err := svc.Flush(); err != nil {
		return err
	}
	if t1.stranded+t1.blocked > 0 {
		return fmt.Errorf("e24: repair-off cell failed %d ops before the faults", t1.stranded+t1.blocked)
	}

	// Kill a majority of the first few workload variables' copies and leave
	// them dead: those variables are now provably stranded, and the exact
	// rate follows from the fault set through the Γ map.
	var buf []uint64
	nVictims := len(vars) / 8
	for _, v := range vars[:nVictims] {
		buf = inst.s.VarModules(buf[:0], inst.idx.Mat(v))
		dead := inst.s.Copies - inst.s.Majority + 1
		for _, m := range buf[:dead] {
			fs.Fail(m)
		}
	}
	failedMods := fs.Count()
	exact := exactStrandRate(inst, fs, vars)
	binom := e22BinomRate(inst.s.Copies, inst.s.Majority, float64(failedMods)/float64(inst.s.NumModules))

	t2, err := f.drive(svc, rr, opsPer-opsPer/2, 1004, protocol.ErrIncomplete)
	if err != nil {
		return err
	}
	if ferr := svc.Flush(); ferr != nil {
		return ferr
	}
	st := svc.Stats()
	if cerr := svc.Close(); cerr != nil {
		return cerr
	}
	closed = true

	rate := float64(t2.stranded) / float64(t2.ops)
	bound := strandBound(exact, t2.ops)
	if err := f.certify("e24/repair-off"); err != nil {
		return err
	}
	verdict := fmt.Sprintf("certified, %d/%d stranded, rate %.4f <= bound %.4f (exact %.4f, binom %.4f)",
		t2.stranded, t2.ops, rate, bound, exact, binom)
	if rate > bound {
		verdict = fmt.Sprintf("STRANDING ABOVE BOUND: %.4f > %.4f", rate, bound)
	}
	fprintf(w, "%-12s %10d %9d %9d %10.2f %10.4f %s\n",
		"repair-off", t1.ops+t2.ops, t2.stranded, t2.blocked, float64(st.Total.TotalRounds)/float64(st.Total.OpsIn), rate, verdict)
	if rate > bound {
		return fmt.Errorf("e24: repair-off stranding %.4f exceeds bound %.4f", rate, bound)
	}
	if exact == 0 {
		return fmt.Errorf("e24: repair-off cell stranded no variables — the counterfactual shows nothing")
	}
	return nil
}

// e24DrillCell runs the wipe-restart drill over TCP: write committed values,
// kill one memserver, restart it with an empty store on the same address,
// and prove the generation-token handshake routes the range through repair —
// the backlog appears, drains over the wire, and every committed value reads
// back exactly. With external servers the kill and restart are the
// harness's job (cmd/netcluster), signalled by the marker line.
func e24DrillCell(w io.Writer, f *e22Fixture) error {
	inst := f.inst
	local, addrs, err := f.cluster()
	if err != nil {
		return err
	}
	defer func() {
		for _, sv := range local {
			sv.Close()
		}
	}()
	k := len(addrs)
	const victim = 1

	tr, err := f.dial(addrs, 3, 10*time.Millisecond, 200*time.Millisecond)
	if err != nil {
		return err
	}
	defer tr.Close()
	svc, err := f.service(true, protocol.Config{}, tr)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()
	fs := tr.FaultSet()

	// Drill variables: exactly one copy on the victim server, so the wipe
	// costs each variable one copy — which the sweep must rebuild over the
	// wire — while an intact majority survives on the other servers. The Γ
	// map can cluster a variable's copies into one server's contiguous
	// range at some (q, n), so scan the whole variable space rather than
	// just the workload set.
	var drill []uint64
	copies := inst.pp.Copies()
	for v := uint64(0); v < inst.s.NumVariables && len(drill) < 32; v++ {
		onVictim := 0
		for c := 0; c < copies; c++ {
			mod, _ := inst.pp.CopyAddr(v, c)
			if netmpc.ServerFor(int64(mod), int64(inst.s.NumModules), k) == victim {
				onVictim++
			}
		}
		if onVictim == 1 {
			drill = append(drill, v)
		}
	}
	if len(drill) < 4 {
		return fmt.Errorf("e24: only %d variables have exactly one copy on server %d of %d", len(drill), victim, k)
	}

	rr := f.rec.Run("e24/tcp-drill", consistency.ContractTotalOrder, 1)
	cr := rr.Client(0)
	model := make(map[uint64]uint64, len(drill))
	for _, v := range drill {
		val := cr.WriteValue()
		if err := svc.Write(v, val); err != nil {
			return fmt.Errorf("e24: model write %d: %w", v, err)
		}
		cr.Record(true, v, val, false)
		model[v] = val
	}
	if err := svc.Flush(); err != nil {
		return err
	}

	// Kill and wiped-restart the victim. In-process clusters do it
	// themselves; external clusters print the marker for the harness.
	healthy := fs.Epoch()
	if len(local) > 0 {
		local[victim].Close()
	} else {
		fprintf(w, "%s\n", e24DrillMarker)
	}
	deadline := time.Now().Add(60 * time.Second)
	if err := f.probeUntilDeath(svc, fs, healthy, drill, deadline); err != nil {
		return err
	}
	if len(local) > 0 {
		ln, err := net.Listen("tcp", addrs[victim])
		if err != nil {
			return fmt.Errorf("e24: rebinding %s: %w", addrs[victim], err)
		}
		sv := f.server(victim, k)
		go sv.Serve(ln)
		local[victim] = sv
	}
	for fs.Count() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("e24: wiped server did not reconnect within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The reborn store announced a new generation, so its whole range must
	// be queued for repair — this is the line the old silent re-admission
	// bug lived on.
	if fs.RepairCount() == 0 {
		return fmt.Errorf("e24: wiped restart was re-admitted without entering repair")
	}
	if err := e24DrainRepair(svc, fs, drill[0], 120*time.Second); err != nil {
		return err
	}

	// Every committed value must read back exactly — no zero-timestamp
	// quorum may have won while the range was under repair.
	wrong := 0
	for _, v := range drill {
		got, err := svc.Read(v)
		if err != nil {
			return fmt.Errorf("e24: post-repair read %d: %w", v, err)
		}
		cr.Record(false, v, got, false)
		if got != model[v] {
			wrong++
			fprintf(w, "e24: variable %d read %d after repair, want %d\n", v, got, model[v])
		}
	}
	repairRounds, repairedMods := e24RepairCounters(svc)
	if cerr := svc.Close(); cerr != nil {
		return cerr
	}
	closed = true

	if err := f.certify("e24/tcp-drill"); err != nil {
		return err
	}
	verdict := fmt.Sprintf("certified, %d modules rebuilt over the wire in %d rounds, %d values intact",
		repairedMods, repairRounds, len(drill))
	if wrong > 0 {
		verdict = fmt.Sprintf("%d OF %d VALUES LOST ACROSS THE WIPE", wrong, len(drill))
	}
	fprintf(w, "%-12s %10d %9d %9d %10s %10.4f %s\n",
		"tcp-drill", 2*len(drill), 0, 0, "-", 0.0, verdict)
	if wrong > 0 {
		return fmt.Errorf("e24: %d committed values lost across the wipe-restart", wrong)
	}
	return nil
}
