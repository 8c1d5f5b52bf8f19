package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/experiments"
	"detshmem/internal/shard"
)

// options are the inputs of one run.
type options struct {
	seed    int64
	seconds int
	trace   bool
	quick   bool   // test scale: small schemes, a few hundred windows
	spans   string // traced runs: file to write the span dump to
}

// sliceStats is one measured slice: a fixed op count, timed. The timings
// are as the clock read them; opsPerS, winP50Us and winP99Us express them at
// the memory speed of the quiet reference box (probe.go).
type sliceStats struct {
	Ops         int64   `json:"ops"`
	Failed      int64   `json:"failed"`
	Refused     int64   `json:"refused"`
	Windows     int     `json:"windows"` // latency samples
	WallS       float64 `json:"wall_s"`
	OpsPerS     float64 `json:"ops_per_s"`
	WinP50Us    float64 `json:"win_p50_us"`
	WinP99Us    float64 `json:"win_p99_us"`
	RoundsPerOp float64 `json:"rounds_per_op"`
	// ProbeNs is the host probe's reading, the mean of one taken right before
	// the slice and one right after, and HostFactor what it makes of it; 0
	// and 1 at -quick scale, which takes no readings.
	ProbeNs    float64 `json:"probe_ns_per_load"`
	HostFactor float64 `json:"host_factor"`
	// Fault cycles only: RecoverPending → empty repair set, and the refusals
	// of the degraded phase, which repeat exactly for a seed.
	DrainS          float64 `json:"repair_drain_s,omitempty"`
	RefusedDegraded int64   `json:"refused_degraded,omitempty"`
}

func (s *sliceStats) opsPerS() float64  { return s.OpsPerS * s.HostFactor }
func (s *sliceStats) winP50Us() float64 { return s.WinP50Us / s.HostFactor }
func (s *sliceStats) winP99Us() float64 { return s.WinP99Us / s.HostFactor }

// result is one run of one workload. Untraced runs carry the end-to-end
// metrics, traced runs the per-layer ones.
type result struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Quick    bool                 `json:"quick,omitempty"`
	Traced   bool                 `json:"traced"`
	Host     experiments.HostInfo `json:"host"`
	Correct  bool                 `json:"correct"`
	// Attempted counts every op of the measured slices; Failed those that
	// returned a wrong value or an unexpected verdict or were never sent;
	// Refused the typed refusals the fault script allows (not failures).
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	Refused      int64                  `json:"refused"`
	FirstFailure string                 `json:"first_failure,omitempty"`
	CertifiedOps int                    `json:"certified_ops"`
	Contract     consistency.Contract   `json:"contract"`
	StreamDigest string                 `json:"stream_digest"`
	SetupS       []float64              `json:"setup_s"`
	Slices       []sliceStats           `json:"slices"`
	Metrics      map[string]metricValue `json:"metrics"`
}

// runner carries one run's state from set-up to the last slice.
type runner struct {
	sp  *workloadSpec
	opt options
	st  *stack
	gen *generator
	drv *driver
	tc  *tracer
	// probe reads the host's memory speed around every slice; nil at -quick
	// scale.
	probe *hostProbe
	// bufs are the per-client op buffers, refilled before every slice so
	// the service only ever sees generated ops and the heap stays flat.
	bufs [][]shard.BatchOp
	res  *result
}

// certifiedOps is the least number of ops the certified pass records, over
// all cold builds (a quarter of it at -quick scale).
const certifiedOps = 20000

func runWorkload(sp *workloadSpec, opt options) (*result, error) {
	r := &runner{sp: sp, opt: opt}
	r.res = &result{
		Workload: sp.name, Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick,
		Traced: opt.trace, Host: experiments.Host(), Contract: consistency.ContractTotalOrder,
	}
	if sp.shards > 1 {
		r.res.Contract = consistency.ContractPerVariable
	}
	if opt.trace {
		r.tc = newTracer(0, sp.clients, sp.shards)
	}
	if !opt.quick {
		var err error
		if r.probe, err = sharedProbe(); err != nil {
			return nil, fmt.Errorf("host probe: %w", err)
		}
	}
	// Every cold build is timed and then certified before it is discarded;
	// the last one is kept for the measured slices.
	rec := consistency.NewRecorder()
	defer func() {
		if r.st != nil {
			r.st.close()
		}
	}()
	for i := 0; i < coldBuilds; i++ {
		if r.st != nil {
			if err := r.st.close(); err != nil {
				return nil, fmt.Errorf("closing build %d: %w", i-1, err)
			}
		}
		// Collect and return freed memory to the OS, so a cold build does not
		// inherit the previous build's spans.
		debug.FreeOSMemory()
		t0 := time.Now()
		st, err := buildStack(sp, opt.quick, r.tc)
		if err != nil {
			return nil, fmt.Errorf("build %d: %w", i, err)
		}
		r.res.SetupS = append(r.res.SetupS, time.Since(t0).Seconds())
		r.st = st
		if r.gen == nil {
			r.gen = newGenerator(sp, opt.seed, st.scheme.NumVariables)
		}
		r.drv = &driver{svc: st.svc, window: sp.window, tc: r.tc, done: make([]int, sp.clients)}
		if err := r.certify(rec, i); err != nil {
			return nil, err
		}
	}
	if sp.prefault > 0 && !opt.quick {
		if err := r.prefault(); err != nil {
			return nil, fmt.Errorf("prefault: %w", err)
		}
	}
	windows := sp.sliceWindows(opt.seconds, opt.quick)
	if opt.trace {
		windows = sp.tracedWindows(opt.seconds, opt.quick)
	}
	if _, _, err := r.slice(r.warmupWindows()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.bufs = nil
	heap := heapInUseMiB()

	ms := metricSet{}
	if opt.trace {
		if err := r.tracedSlices(windows, ms); err != nil {
			return nil, err
		}
		r.res.Metrics = ms.export(perLayer)
	} else {
		if err := r.measuredSlices(windows, ms); err != nil {
			return nil, err
		}
		ms["setup_s"] = median(r.res.SetupS)
		ms["heap_mb"] = heap
		r.res.Metrics = ms.export(endToEnd)
	}
	r.res.StreamDigest = fmt.Sprintf("%016x", r.gen.digest())
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// certify records one build's share of the certified pass and checks the
// trace under every mode the workload's contract obliges, before anything
// is timed. A violation ends the run with the checker's counterexample.
// The pass is split over the cold builds, each starting from an empty
// store, because the checker's cost grows with the cube of the ops on a hot
// variable: 20 000 hot-spot ops in one trace take it over ten seconds,
// three traces of a third each well under one.
func (r *runner) certify(rec *consistency.Recorder, build int) error {
	target := certifiedOps
	if r.opt.quick {
		target /= 4
	}
	perBuild := coldBuilds * r.sp.clients * r.sp.window
	windows := r.sp.wholeCycles((target + perBuild - 1) / perBuild)
	r.drv.rec = rec.Run(fmt.Sprintf("%s/build%d", r.sp.name, build), r.res.Contract, r.sp.clients)
	_, t, err := r.slice(windows)
	r.drv.rec = nil
	if err != nil {
		return fmt.Errorf("certified pass: %w", err)
	}
	if t.failed > 0 {
		return fmt.Errorf("certified pass: %d of %d ops failed; first: %s", t.failed, t.ops, t.firstErr)
	}
	run := rec.TraceSet().Runs[build]
	for _, mode := range consistency.ModesFor(run.Contract) {
		if rep := consistency.Check(run.Clients, mode); !rep.OK {
			v := rep.First()
			msg := fmt.Sprintf("certified pass violates %s consistency: %s", mode, v.Message)
			for i, op := range v.Ops {
				msg += fmt.Sprintf("\n  %s", op)
				if i < len(v.Why) {
					msg += fmt.Sprintf("\n    -> %s", v.Why[i])
				}
			}
			return errors.New(msg)
		}
	}
	r.res.CertifiedOps += run.Clients.Ops()
	return nil
}

// warmupWindows is the warm-up's length: a tenth of a run's windows, over a
// second at the speed the suite was sized for.
func (r *runner) warmupWindows() int {
	if r.opt.quick {
		return r.sp.wholeCycles((r.sp.quickWindows*3 + 9) / 10)
	}
	return r.sp.wholeCycles(max(r.sp.windows*r.opt.seconds/10/10, minWindows))
}

// minCeiling keeps the wall-clock ceiling of a short slice above a burst of
// the host.
const minCeiling = 5 * time.Second

// ceiling is the wall-clock limit of a slice of windows windows per client:
// ten times what it takes at the speed of the commit that introduced the
// suite, and never under minCeiling.
func (r *runner) ceiling(windows int) time.Duration {
	if r.opt.quick {
		return 20 * time.Second
	}
	nominal := 10 * time.Second * time.Duration(windows) / time.Duration(r.sp.windows)
	return max(10*nominal, minCeiling)
}

// fill generates the next windows windows of every client's stream into the
// clients' buffers.
func (r *runner) fill(windows int, tr traffic) {
	n := windows * r.sp.window
	if len(r.bufs) == 0 || len(r.bufs[0]) != n {
		r.bufs = make([][]shard.BatchOp, r.sp.clients)
		for c := range r.bufs {
			r.bufs[c] = make([]shard.BatchOp, n)
		}
	}
	for c := range r.bufs {
		r.gen.fill(c, r.bufs[c], tr)
	}
}

// prefault drives uniform traffic over the whole variable space, untimed,
// so that the pages of the stores have been touched before warm-up. The
// workload's own traffic would leave that to the measured slices: under
// Zipf 1.1 the first slice of large-zipf took 72 000 page faults and the
// fortieth 350, and the slices sped up by a third on the way.
func (r *runner) prefault() error {
	r.fill(r.sp.prefault, uniform)
	t, err := r.drv.drive(r.bufs, healthy, time.Now().Add(r.ceiling(r.sp.windows)))
	if err == nil && t.failed > 0 {
		err = fmt.Errorf("%d of %d ops failed; first: %s", t.failed, t.ops, t.firstErr)
	}
	return err
}

// slice generates windows windows per client and drives them: one healthy
// drive, or one fault cycle on the fault workload.
func (r *runner) slice(windows int) (sliceStats, tally, error) {
	r.fill(windows, r.sp.traffic)
	// Every slice starts right after a collection, as testing.B runs do:
	// otherwise a slice's speed depends on how far the heap has grown toward
	// the next cycle, which on the 1 GiB store of large-zipf spans slices.
	runtime.GC()
	probeNs := r.probeNs()
	deadline := time.Now().Add(r.ceiling(windows))
	before := r.st.svc.Stats().Total
	var t tally
	var cs cycleStats
	var err error
	if r.sp.faults {
		t, cs, err = r.cycle(deadline)
	} else {
		t, err = r.drv.drive(r.bufs, healthy, deadline)
	}
	if err != nil {
		return sliceStats{}, t, err
	}
	after := r.st.svc.Stats().Total
	probeNs = (probeNs + r.probeNs()) / 2
	s := sliceStats{
		Ops: t.ops, Failed: t.failed, Refused: t.refused, Windows: len(t.lat),
		WallS:       t.wall.Seconds(),
		OpsPerS:     float64(t.ops) / t.wall.Seconds(),
		WinP50Us:    percentile(t.lat, 50) / 1e3,
		WinP99Us:    percentile(t.lat, 99) / 1e3,
		RoundsPerOp: ratio(float64(after.TotalRounds-before.TotalRounds), float64(after.OpsIn-before.OpsIn)),
		ProbeNs:     probeNs, HostFactor: hostFactor(probeNs, r.sp.hostSlope),
		DrainS: cs.drainS, RefusedDegraded: cs.refusedDegraded,
	}
	return s, t, nil
}

// probeNs takes one reading of the host probe, 0 without one.
func (r *runner) probeNs() float64 {
	if r.probe == nil {
		return 0
	}
	return r.probe.nsPerLoad()
}

// account folds a measured slice into the run's totals. Ops never sent
// count as attempted and failed.
func (r *runner) account(s sliceStats, t *tally, windows int) {
	r.res.Slices = append(r.res.Slices, s)
	r.res.Attempted += int64(windows * r.sp.window * r.sp.clients)
	r.res.Failed += t.failed
	r.res.Refused += t.refused
	if r.res.FirstFailure == "" {
		r.res.FirstFailure = t.firstErr
	}
}

// measuredSlices is the untraced run: the workload's slices, every timing
// metric computed per slice and reported as the median slice.
func (r *runner) measuredSlices(windows int, ms metricSet) error {
	var ops, p50 []float64
	before := r.st.svc.Stats().Total
	for i := 0; i < r.sp.runSlices(r.opt.quick); i++ {
		s, t, err := r.slice(windows)
		if err != nil {
			return fmt.Errorf("slice %d: %w", i, err)
		}
		r.account(s, &t, windows)
		ops, p50 = append(ops, s.opsPerS()), append(p50, s.winP50Us())
	}
	after := r.st.svc.Stats().Total
	ms["ops_per_s"] = median(ops)
	ms["win_p50_us"] = median(p50)
	// A count, not a timing: taken over all measured slices at once.
	ms["rounds_per_op"] = float64(after.TotalRounds-before.TotalRounds) / float64(after.OpsIn-before.OpsIn)
	return nil
}

// processCounters are the process-wide costs read at slice boundaries.
type processCounters struct {
	mallocs, allocBytes, gcPauseNs uint64
	cpuS                           float64 // user + system
}

func readProcess() processCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p := processCounters{mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcPauseNs: m.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return p
}

// heapInUseMiB is HeapInuse after a forced collection: the table, the
// stores and whatever else set-up and warm-up left resident.
func heapInUseMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
