package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the suite emits. BENCHMARK.json repeats the
// declarations for the driver; the schema test keeps the two identical.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a client of the service sees; an untraced run
// reports all of them for every workload. Failures are not in the list
// because they are usually 0: a run reports attempted, failed and refused
// ops beside the metrics, and a failed op makes the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"win_p50_us", "us", "lower", 0.25},
	{"rounds_per_op", "rounds/op", "lower", 0.03},
	{"heap_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics of single layers; a traced run reports all of
// them for every workload, 0 where the layer is not on the workload's path.
var perLayer = []metricDef{
	// The tail of what a client sees, from the two untraced reference slices.
	// It is here and not among the bounded metrics because the shared
	// reference box cannot repeat it within the largest bound a metric may
	// have (see README.md, "End-to-end metrics").
	{"client.win_p99_us", "us", "lower", 0},

	{"shard.submit_ns_per_op", "ns/op", "lower", 0},
	{"shard.wait_ns_per_win", "ns/win", "lower", 0},
	{"shard.batches_per_kop", "1/kop", "lower", 0},
	{"shard.idle_flush_frac", "ratio", "lower", 0},
	{"shard.size_flush_frac", "ratio", "higher", 0},
	{"shard.conflict_flush_frac", "ratio", "lower", 0},
	{"shard.imbalance", "ratio", "lower", 0},

	{"frontend.combine_frac", "ratio", "higher", 0},
	{"frontend.coalesce_ns_per_op", "ns/op", "lower", 0},
	{"frontend.requests_ns_per_req", "ns/req", "lower", 0},
	{"frontend.complete_ns_per_op", "ns/op", "lower", 0},

	{"protocol.reqs_per_batch", "reqs/batch", "higher", 0},
	{"protocol.rounds_per_batch", "rounds/batch", "lower", 0},
	{"protocol.phi_mean", "rounds", "lower", 0},
	{"protocol.phi_max", "rounds", "lower", 0},
	{"protocol.issued_bids_per_req", "bids/req", "lower", 0},
	{"protocol.grant_ratio", "ratio", "higher", 0},
	{"protocol.retried_bids_per_kop", "1/kop", "lower", 0},
	{"protocol.stranded", "count", "lower", 0},
	{"protocol.repair_rounds", "count", "lower", 0},
	{"protocol.repaired_copies", "count", "higher", 0},
	{"protocol.repair_drain_s", "s", "lower", 0},
	{"protocol.access_ns_per_req", "ns/req", "lower", 0},
	{"protocol.resolve_ns_per_var", "ns/var", "lower", 0},
	{"protocol.loop_self_ns_per_req", "ns/req", "lower", 0},

	{"core.resolve_ns_per_var", "ns/var", "lower", 0},

	{"mpc.round_ns_p50", "ns", "lower", 0},
	{"mpc.round_ns_mean", "ns", "lower", 0},
	{"mpc.bids_per_round", "bids/round", "higher", 0},
	{"mpc.round_busy_frac", "ratio", "lower", 0},
	{"mpc.dropped_bids_per_kop", "1/kop", "lower", 0},

	{"netmpc.round_us_p50", "us", "lower", 0},
	{"netmpc.round_us_p99", "us", "lower", 0},
	{"netmpc.frames_per_op", "frames/op", "lower", 0},
	{"netmpc.bids_per_frame", "bids/frame", "higher", 0},
	{"netmpc.max_in_flight", "count", "higher", 0},
	{"netmpc.timeouts", "count", "lower", 0},
	{"netmpc.reconnects", "count", "lower", 0},
	{"netmpc.wire_bytes_per_op", "B/op", "lower", 0},
	{"netmpc.server_frames", "count", "lower", 0},

	{"process.allocs_per_op", "1/op", "lower", 0},
	{"process.alloc_bytes_per_op", "B/op", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.cpu_s_per_mop", "s/Mop", "lower", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},

	// The replay's counts repeat exactly for a seed, so a later change may
	// rest a claim on them where the in-situ counterparts only repeat
	// within the scheduler's noise.
	{"replay.rounds_per_batch", "rounds/batch", "lower", 0},
	{"replay.phi_max", "rounds", "lower", 0},
	{"replay.issued_bids_per_req", "bids/req", "lower", 0},
	{"replay.combine_frac", "ratio", "higher", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics and checks them against a declared
// list, so a run can neither drop a declared metric nor invent one.
type metricSet map[string]float64

func (ms metricSet) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := ms[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was declared but not measured")
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(ms) != len(defs) {
		for name := range ms {
			if _, ok := out[name]; !ok {
				panic("bench: metric " + name + " was measured but not declared")
			}
		}
	}
	return out
}

// ratio is a/b, and 0 when the layer saw no work at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of ns, which it
// sorts in place.
func percentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	rank := int(math.Ceil(p / 100 * float64(len(ns))))
	if rank < 1 {
		rank = 1
	}
	return float64(ns[rank-1])
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, the steadiness measure the driver applies across
// runs; -compare applies it across a run's slices.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Python's statistics.quantiles(n=4), exclusive method.
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), median(s))
}
