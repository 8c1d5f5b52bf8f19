package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// quickRuns caches -quick runs so the tests below share them.
var quickRuns = struct {
	sync.Mutex
	m map[string]*result
}{m: map[string]*result{}}

func quickRun(t *testing.T, sp *workloadSpec, seed int64, traced bool) *result {
	t.Helper()
	key := fmt.Sprintf("%s/%d clients/%d/%v", sp.name, sp.clients, seed, traced)
	quickRuns.Lock()
	defer quickRuns.Unlock()
	if r := quickRuns.m[key]; r != nil {
		return r
	}
	r, err := runWorkload(sp, options{seed: seed, seconds: 10, trace: traced, quick: true})
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", sp.name, seed, traced, err)
	}
	if !r.Correct {
		t.Fatalf("%s seed %d traced=%v: %d of %d ops failed; first: %s", sp.name, seed, traced, r.Failed, r.Attempted, r.FirstFailure)
	}
	quickRuns.m[key] = r
	return r
}

func mustWorkload(t *testing.T, name string) *workloadSpec {
	t.Helper()
	sp, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	slices.Sort(out)
	return out
}

func keys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// TestSuiteQuick runs every workload untraced and traced and checks that
// what is emitted is exactly what is declared. The second seed repeats the
// untraced run everywhere; TestDeterminism traces it on two workloads.
func TestSuiteQuick(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		for _, seed := range []int64{1, 2} {
			un := quickRun(t, sp, seed, false)
			tr := quickRun(t, sp, 1, true)
			if got, want := keys(un.Metrics), names(endToEnd); !slices.Equal(got, want) {
				t.Errorf("%s: untraced run emitted %v, declared %v", sp.name, got, want)
			}
			if got, want := keys(tr.Metrics), names(perLayer); !slices.Equal(got, want) {
				t.Errorf("%s: traced run emitted %v, declared %v", sp.name, got, want)
			}
			for name, v := range un.Metrics {
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive finite number", sp.name, name, v.Value)
				}
			}
			if want := certifiedOps / 4; un.CertifiedOps < want || tr.CertifiedOps < want {
				t.Errorf("%s: certified %d and %d ops, want at least %d", sp.name, un.CertifiedOps, tr.CertifiedOps, want)
			}
			if len(un.Slices) != quickSlices || len(un.SetupS) != coldBuilds {
				t.Errorf("%s: %d slices and %d builds, want %d and %d", sp.name, len(un.Slices), len(un.SetupS), quickSlices, coldBuilds)
			}
			if sp.faults != (un.Refused > 0) {
				t.Errorf("%s: %d refused ops; only the fault workload refuses ops", sp.name, un.Refused)
			}
		}
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's own
// declarations identical, and within the limits the driver sets.
func TestManifestMatchesProgram(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unitRE)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			if g.Bound < 0 || g.Bound > 0.25 {
				t.Errorf("%s: bound %v outside [0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd)
	compare("per_layer", m.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.bound <= 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", d.name)
		}
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v exceeds that of setup_s, which must be the largest", d.name, d.bound)
		}
	}
	if s := endToEnd[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", s)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", m.RunSeconds)
	}
}

// TestContractLine checks the last line of a single-workload run: one JSON
// object with exactly the driver's keys.
func TestContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "small-hotspot", "--seed", "3", "--seconds", "1", "--trace", trace, "-quick"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if got, want := keys(obj), []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(got, want) {
			t.Errorf("-trace %s: keys %v, want %v", trace, got, want)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := names(endToEnd)
		if trace == "1" {
			want = names(perLayer)
		}
		if !slices.Equal(keys(metrics), want) {
			t.Errorf("-trace %s: metrics %v, want %v", trace, keys(metrics), want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit code %d, stdout %q", code, stdout.String())
	}
}

// TestDeterminism: a seed fixes the op streams, the fault ranges and every
// count the replay makes; another seed changes them.
func TestDeterminism(t *testing.T) {
	replayCounts := []string{"replay.rounds_per_batch", "replay.phi_max", "replay.issued_bids_per_req", "replay.combine_frac"}
	for _, name := range []string{"small-hotspot", "fault-repair"} {
		sp := mustWorkload(t, name)
		a := quickRun(t, sp, 1, true)
		b, err := runWorkload(sp, options{seed: 1, seconds: 10, trace: true, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		other := quickRun(t, sp, 2, true)
		if a.StreamDigest != b.StreamDigest {
			t.Errorf("%s: seed 1 gave stream digests %s and %s", name, a.StreamDigest, b.StreamDigest)
		}
		if a.StreamDigest == other.StreamDigest {
			t.Errorf("%s: seeds 1 and 2 gave the same stream digest %s", name, a.StreamDigest)
		}
		differs := false
		for _, m := range replayCounts {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s is %v and %v on the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
			if m != "replay.phi_max" && a.Metrics[m].Value != other.Metrics[m].Value {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 gave identical replay counts", name)
		}
		if sp.faults {
			for i := range a.Slices {
				if a.Slices[i].RefusedDegraded != b.Slices[i].RefusedDegraded || a.Slices[i].RefusedDegraded == 0 {
					t.Errorf("%s slice %d: %d and %d ops refused while degraded on the same seed, want equal and non-zero",
						name, i, a.Slices[i].RefusedDegraded, b.Slices[i].RefusedDegraded)
				}
			}
		}
	}
}

// bareMachine has no views and counts Close calls.
type bareMachine struct{ closed int }

func (m *bareMachine) Round([]int64, []bool) int { return 0 }
func (m *bareMachine) Cost() uint64              { return 0 }
func (m *bareMachine) Close()                    { m.closed++ }

// halfMachine has a fault view but no repair view, a shape no wrapper
// mirrors.
type halfMachine struct {
	bareMachine
	protocol.FaultView
}

// TestWrapperMirrorsViews: the timing wrapper must forward Close and expose
// the fault, repair and remote-store views exactly when the wrapped machine
// does, or the traced run silently measures a different system.
func TestWrapperMirrorsViews(t *testing.T) {
	views := func(m protocol.Machine) [3]bool {
		_, f := m.(protocol.FaultView)
		_, r := m.(protocol.RepairView)
		_, s := m.(protocol.RemoteStore)
		return [3]bool{f, r, s}
	}
	tc := newTracer(0, 0, 1)
	cfg := mpc.Config{Procs: 4, Modules: 63}

	plain, err := mpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failing, err := mpc.NewFailingShared(cfg, mpc.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildStack(mustWorkload(t, "tcp-loopback"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	remote, err := st.tr.NewMachine(mpc.Config{Procs: 4, Modules: int(st.scheme.NumModules)})
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []protocol.Machine{plain, failing, remote} {
		w, err := wrapMachine(inner, tc, tc.shards[0])
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if got, want := views(w), views(inner); got != want {
			t.Errorf("%T wrapped as %T: views (fault, repair, remote) = %v, the machine has %v", inner, w, got, want)
		}
		if _, ok := w.(interface{ Close() }); !ok {
			t.Errorf("%T: wrapper has no Close", inner)
		}
	}
	if views(failing) != [3]bool{true, true, false} || views(remote) != [3]bool{true, true, true} {
		t.Errorf("machine shapes changed: failing %v, remote %v; the wrappers need another look", views(failing), views(remote))
	}

	bare := &bareMachine{}
	w, err := wrapMachine(bare, tc, tc.shards[0])
	if err != nil {
		t.Fatal(err)
	}
	w.(interface{ Close() }).Close()
	if bare.closed != 1 {
		t.Errorf("Close reached the wrapped machine %d times, want 1", bare.closed)
	}
	if _, err := wrapMachine(&halfMachine{}, tc, tc.shards[0]); err == nil {
		t.Error("a machine with a fault view and no repair view was wrapped; want an error")
	}
}

// TestTracedRunMeasuresSameSystem: with the hooks on, the fault path and
// the remote path must still be taken — same refusals while degraded, same
// rounds per op. One client makes batching a function of the stream (bar a
// window the flusher catches half-published), so 2 % is ample.
func TestTracedRunMeasuresSameSystem(t *testing.T) {
	for _, name := range []string{"fault-repair", "tcp-loopback"} {
		sp := *mustWorkload(t, name)
		sp.clients = 1
		un := quickRun(t, &sp, 1, false)
		tr := quickRun(t, &sp, 1, true)
		// Slice 1 of the traced run is the one with the hooks on; both runs
		// generate the same streams and fault ranges up to there.
		u, h := un.Slices[1], tr.Slices[1]
		if u.RefusedDegraded != h.RefusedDegraded {
			t.Errorf("%s: %d ops refused while degraded untraced, %d traced", name, u.RefusedDegraded, h.RefusedDegraded)
		}
		if d := math.Abs(h.RoundsPerOp-u.RoundsPerOp) / u.RoundsPerOp; d > 0.02 {
			t.Errorf("%s: rounds_per_op %v untraced, %v traced: %.1f%% apart", name, u.RoundsPerOp, h.RoundsPerOp, d*100)
		}
		if sp.faults && (tr.Metrics["protocol.stranded"].Value == 0 || tr.Metrics["protocol.repaired_copies"].Value == 0) {
			t.Errorf("%s: traced run saw %v stranded requests and %v repaired copies, want both non-zero",
				name, tr.Metrics["protocol.stranded"].Value, tr.Metrics["protocol.repaired_copies"].Value)
		}
		if sp.tcp && tr.Metrics["netmpc.server_frames"].Value == 0 {
			t.Errorf("%s: the servers saw no frames during the traced slice", name)
		}
	}
}

// TestOutputCheck pins the O(1) value check and the majority oracle.
func TestOutputCheck(t *testing.T) {
	v := uint64(22369535) // the largest variable index of the suite
	val := taggedValue(v, 1, 1<<31)
	if !valueMatches(v, val) || !valueMatches(v, 0) || valueMatches(v-1, val) || val == 0 {
		t.Errorf("tagged value %#x does not check out for variable %d", val, v)
	}
	st, err := buildStack(mustWorkload(t, "fault-repair"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	n := st.scheme.NumModules
	if lost := lostMajority(st.resolver, 0, 0); lost.count() != 0 {
		t.Errorf("no failed module, yet %d variables lost their majority", lost.count())
	}
	if lost := lostMajority(st.resolver, 0, n); lost.count() != int(st.scheme.NumVariables) {
		t.Errorf("every module failed, yet only %d of %d variables lost their majority", lost.count(), st.scheme.NumVariables)
	}
	lost := lostMajority(st.resolver, n/2, n/2+n/4)
	if c := lost.count(); c == 0 || c >= int(st.scheme.NumVariables)/2 {
		t.Errorf("a quarter of the modules failed and %d of %d variables lost their majority", c, st.scheme.NumVariables)
	}
}

func (b bitset) count() int {
	n := 0
	for v := uint64(0); v < uint64(len(b))*64; v++ {
		if b.has(v) {
			n++
		}
	}
	return n
}

// TestCompare drives -compare's verdicts on synthetic results.
func TestCompare(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale, noise float64) map[string]*result {
		out := map[string]*result{}
		for _, w := range m.Workloads {
			r := &result{Workload: w.Name, Seed: 1, Seconds: 10, Metrics: map[string]metricValue{}}
			for i := 0; i < quickSlices; i++ {
				f := 1 + noise*float64(i-2)
				r.Slices = append(r.Slices, sliceStats{OpsPerS: 1e6 / scale * f, WinP50Us: 100 * scale * f, RoundsPerOp: 0.05, HostFactor: 1})
			}
			r.SetupS = []float64{0.2, 0.2, 0.2}
			r.Metrics["setup_s"] = metricValue{Value: 0.2}
			r.Metrics["ops_per_s"] = metricValue{Value: 1e6 / scale}
			r.Metrics["win_p50_us"] = metricValue{Value: 100 * scale}
			r.Metrics["rounds_per_op"] = metricValue{Value: 0.05}
			r.Metrics["heap_mb"] = metricValue{Value: 50}
			out[w.Name] = r
		}
		return out
	}
	// The wall-clock bounds are all the bound of ops_per_s; scale against it.
	bound := endToEnd[1].bound
	var buf bytes.Buffer
	if code := compareResults(m, mk(1, 0.001), mk(1+bound/2, 0.001), &buf); code != 0 {
		t.Errorf("slower by half the bound: exit code %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareResults(m, mk(1, 0.001), mk(1+2*bound, 0.001), &buf); code != 1 || !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("slower by twice the bound: exit code %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareResults(m, mk(1, 0.001), mk(1/(1+2*bound), 0.001), &buf); code != 0 {
		t.Errorf("faster by twice the bound: exit code %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareResults(m, mk(1, bound), mk(1+2*bound, bound), &buf); code != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("slower by twice the bound under slices that spread as wide: exit code %d, want 0 and unresolved\n%s", code, buf.String())
	}
	next := mk(1, 0.001)
	delete(next, m.Workloads[0].Name)
	if code := compareResults(m, mk(1, 0.001), next, &buf); code != 1 {
		t.Errorf("missing workload: exit code %d", code)
	}
}

// TestSpreadMatchesPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// statistics.quantiles → [10.375, 11.75, 13.25]; median 11.75.
	if got, want := spread(xs), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := percentile([]int64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	ns := make([]int64, 1100)
	for i := range ns {
		ns[i] = int64(i)
	}
	if got := percentile(ns, 99); got != 1088 { // eleven samples lie beyond it
		t.Errorf("p99 of 0…1099 = %v, want 1088", got)
	}
}

// TestHostProbe: a reading is a positive time per load, and the factor is 1
// at the nominal reading and without a probe.
func TestHostProbe(t *testing.T) {
	p, err := newHostProbe(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if ns := p.nsPerLoad(); !(ns > 0) || ns > 1e5 {
		t.Errorf("a reading of %v ns per load", ns)
	}
	for _, c := range []struct{ probeNs, slope, want float64 }{
		{0, 1.25, 1}, {probeNominalNs, 1.25, 1}, {2 * probeNominalNs, 1, 2}, {2 * probeNominalNs, 2, 4},
	} {
		if got := hostFactor(c.probeNs, c.slope); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hostFactor(%v, %v) = %v, want %v", c.probeNs, c.slope, got, c.want)
		}
	}
	s := sliceStats{OpsPerS: 100, WinP50Us: 10, WinP99Us: 30, HostFactor: 2}
	if s.opsPerS() != 200 || s.winP50Us() != 5 || s.winP99Us() != 15 {
		t.Errorf("a slice measured on a host twice as slow reads %v ops/s, p50 %v, p99 %v", s.opsPerS(), s.winP50Us(), s.winP99Us())
	}
}
