package main

import "fmt"

// traffic selects how a workload draws its variables.
type traffic int

const (
	uniform  traffic = iota // independent uniform draws over [0, M)
	hotspot                 // workload.HotSpot: 16 hot variables at p = 0.85
	zipf                    // workload.Zipf: exponent 1.1
	distinct                // every window is one set of distinct variables
)

// Traffic constants shared by every workload (see README.md, "Load shape").
const (
	writePerMille = 400 // 40 % writes, 60 % reads
	hotVars       = 16
	hotProb       = 0.85
	zipfExponent  = 1.1
	coldBuilds    = 3
)

// workloadSpec is one fixed cell of the suite. The names are cited by later
// issues and by BENCHMARK.json; the schema test fails if the two drift.
type workloadSpec struct {
	name string
	why  string

	deg      int  // extension degree n of the q = 2 scheme
	quickDeg int  // degree at -quick scale
	computed bool // protocol.ResolverComputed instead of the compiled table
	shards   int
	clients  int
	window   int // ops per AccessBatch call
	traffic  traffic
	tcp      bool // two loopback netmpc servers instead of the in-process MPC
	faults   bool // every slice is one fail → repair cycle

	// prefault is a number of windows of uniform traffic each client submits
	// before warm-up, so that first touch of a store far larger than the
	// traffic's working set is over before anything is timed.
	prefault int

	// hostSlope is how steeply the workload's slice times follow the host
	// probe: d log(slice time) / d log(probe reading). It was fitted once,
	// over 20 to 140 runs per workload of the commit that introduced the
	// suite, as the exponent under which sets of ten consecutive runs spread
	// least on the box's quiet and its noisy hours alike (README.md, "The
	// host probe"). It is a property of the suite, not of the code under
	// test: a later change leaves it alone.
	hostSlope float64

	// slices is the number of measured slices of a run. Many short slices
	// let the median step over the bursts of a shared host; the fault
	// workload takes fewer and longer ones, because each is a whole cycle
	// that ends with an idle wait of over a second for the repair sweep.
	slices int
	// windows is the number of windows each client submits over all measured
	// slices at -seconds 10, sized so that they take about ten seconds at the
	// speed of the commit that introduced the suite. It scales linearly with
	// -seconds.
	windows      int
	quickWindows int // per slice, at -quick scale
}

// minWindows is the least number of windows per client in a slice: enough
// samples for a slice's median latency whatever -seconds is.
const minWindows = 50

// quickSlices is the number of slices at -quick scale.
const quickSlices = 5

var workloads = []workloadSpec{
	{
		name: "small-uniform",
		why:  "batches of ~100 distinct variables and ~3 rounds: per-op cost is shard admission, frontend coalescing and future completion",
		deg:  7, quickDeg: 5, shards: 2, clients: 2, window: 64, traffic: uniform,
		hostSlope: 1.5, slices: 40, windows: 134000, quickWindows: 150,
	},
	{
		name: "small-hotspot",
		why:  "16 hot variables at p=0.85: read combining, write coalescing, forwarding and write-after-read conflict flushes",
		deg:  7, quickDeg: 5, shards: 1, clients: 2, window: 64, traffic: hotspot,
		hostSlope: 1.5, slices: 40, windows: 180000, quickWindows: 150,
	},
	{
		name: "pram-step",
		why:  "one client, windows of 4096 distinct variables: the paper's regime, where the protocol loop, MPC rounds and table reads do the work",
		deg:  7, quickDeg: 5, shards: 1, clients: 1, window: 4096, traffic: distinct,
		hostSlope: 1.75, slices: 40, windows: 4300, quickWindows: 30,
	},
	{
		name: "large-zipf",
		why:  "q=2 n=9 with computed resolution under Zipf 1.1: the only cell where core's fused kernels and O(1) unranking run per op",
		deg:  9, quickDeg: 7, computed: true, shards: 1, clients: 2, window: 64, traffic: zipf,
		prefault: 10000, hostSlope: 1.75, slices: 40, windows: 110000, quickWindows: 150,
	},
	{
		name: "tcp-loopback",
		why:  "two netmpc servers on 127.0.0.1: wire frames and server arbitration dominate, and lock-step max_in_flight=1 shows only here",
		deg:  7, quickDeg: 5, shards: 1, clients: 2, window: 64, traffic: uniform, tcp: true,
		hostSlope: 2, slices: 40, windows: 40000, quickWindows: 100,
	},
	{
		name: "fault-repair",
		why:  "op-indexed cycle healthy, fail N/4 contiguous modules, repair under traffic, healthy: re-selection, stranding verdicts and repair sweeps",
		deg:  7, quickDeg: 5, shards: 2, clients: 2, window: 64, traffic: uniform, faults: true,
		hostSlope: 1.35, slices: 6, windows: 41000, quickWindows: 200,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// degree returns the scheme's extension degree at the given scale.
func (sp *workloadSpec) degree(quick bool) int {
	if quick {
		return sp.quickDeg
	}
	return sp.deg
}

// runSlices returns the number of measured slices of an untraced run.
func (sp *workloadSpec) runSlices(quick bool) int {
	if quick {
		return quickSlices
	}
	return sp.slices
}

// sliceWindows returns the windows each client submits in one slice.
func (sp *workloadSpec) sliceWindows(seconds int, quick bool) int {
	if quick {
		return sp.wholeCycles(sp.quickWindows)
	}
	return sp.wholeCycles(max(sp.windows*seconds/10/sp.slices, minWindows))
}

// tracedWindows returns the windows each client submits in one slice of a
// traced run: a quarter of an untraced run's windows, so that the reference
// slices hold well over a thousand windows and their 99th percentile has
// ten samples beyond it.
func (sp *workloadSpec) tracedWindows(seconds int, quick bool) int {
	if quick {
		return sp.wholeCycles(sp.quickWindows)
	}
	return sp.wholeCycles(max(sp.windows*seconds/10/4, minWindows))
}

// wholeCycles rounds a window count up so that the fault workload's cycle
// splits it into four equal phases; other workloads take any count.
func (sp *workloadSpec) wholeCycles(windows int) int {
	if sp.faults {
		return (windows + 3) / 4 * 4
	}
	return windows
}
