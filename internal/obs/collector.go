package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a last-observed-value atomic gauge (Set overwrites; compare
// MaxGauge, which only rises).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MaxGauge tracks the maximum value ever observed (a high-water mark).
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the gauge to n if n exceeds the current maximum.
func (g *MaxGauge) Observe(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current maximum.
func (g *MaxGauge) Load() int64 { return g.v.Load() }

// Histogram is a power-of-two-bucketed histogram with atomic buckets (see
// HistBuckets for the bucket layout). Observe is lock- and allocation-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// Observe counts one positive value; zero and negative values are ignored.
func (h *Histogram) Observe(v int64) {
	if v <= 0 {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// AddBucket merges n observations directly into bucket b, accounting their
// sum at the bucket's 2^b lower bound (used when merging pre-bucketed
// LoadHists, where exact values are gone; the sum is then a lower bound).
func (h *Histogram) AddBucket(b int, n int64) {
	if n <= 0 || b < 0 {
		return
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(n)
	h.count.Add(n)
	h.sum.Add(n * (int64(1) << b))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values (a lower bound when AddBucket was
// used).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns a snapshot of the bucket counts.
func (h *Histogram) Buckets() [HistBuckets]int64 {
	var out [HistBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Collector aggregates cumulative observability from all three levels of
// the stack. It implements Recorder (round level, fed by the MPC engine),
// BatchObserver (batch level, fed by protocol.System), and exposes explicit
// hooks for the frontend dispatcher (queue depth, flush causes). All
// methods are safe for concurrent use and allocation-free, so a single
// process-wide Collector can watch any number of systems and frontends.
type Collector struct {
	// Batch level (ObserveBatch, from protocol.Metrics).
	Batches        Counter   // protocol batches completed
	Requests       Counter   // requests across batches
	Rounds         Counter   // Σ Metrics.TotalRounds
	CopyAccesses   Counter   // Σ Metrics.CopyAccesses
	GrantedBids    Counter   // Σ Metrics.GrantedBids (incl. cancelled bids)
	IssuedBids     Counter   // Σ Metrics.IssuedBids (bids handed to the MPC)
	Unfinished     Counter   // requests that missed their quorum
	MaxPhi         MaxGauge  // largest per-batch Φ
	RoundsPerBatch Histogram // distribution of Metrics.TotalRounds

	// Fault layer (batch + round level).
	RetriedBids      Counter   // bids re-selected onto surviving copies
	StrandedRequests Counter   // requests whose live copies fell below quorum
	DroppedBids      Counter   // Σ per-round bids dropped at failed modules
	FaultBatches     Counter   // batches that finished with ≥1 failed module
	FailedModules    MaxGauge  // most failed modules seen at a batch end
	FaultRounds      Histogram // rounds per batch, counted only under faults
	//                            (compare with RoundsPerBatch for the
	//                            per-fault-count round inflation)

	// Repair layer (ObserveRepair, from the background repair scheduler).
	RepairedCopies  Counter // target copies rebuilt by repair writes
	RepairSalvaged  Counter // variables rebuilt without a sound source majority
	RepairRounds    Counter // MPC rounds spent on repair waves
	RepairCertified Counter // modules certified fully live
	RepairBacklog   Gauge   // modules under repair after the latest step

	// Round level (RecordRound, from the MPC engine).
	MPCRounds     Counter   // rounds recorded
	MPCRequests   Counter   // Σ per-round live requests
	MPCGranted    Counter   // Σ per-round grants
	MaxModuleLoad MaxGauge  // worst per-module congestion ever seen
	ModuleLoad    Histogram // per-module per-round load distribution
	Imbalance     Histogram // per-round max-load distribution

	// Dispatcher level (ObserveFlush).
	Flushes [numFlushCauses]Counter

	// Admission-ring level (ObserveRingDepth / ObserveFlusherPark /
	// ObserveFlusherWake, from the lock-free shard dispatcher).
	RingDepth    Histogram // ring occupancy, sampled every 64th admission
	MaxRingDepth MaxGauge  // deepest ring occupancy observed (exact)
	FlusherParks Counter   // flusher parked on a genuinely idle ring
	FlusherWakes Counter   // producer kicks that un-parked the flusher

	// Resolver residency (ObserveResolverResidency, from a compiled
	// resolver whose System's Observer is this collector).
	ResolverShards Gauge // compiled blocks resident (1 = the dense table)
	ResolverBytes  Gauge // resident compiled-table bytes
}

// NewCollector returns a zeroed collector.
func NewCollector() *Collector { return &Collector{} }

// Enabled reports true: a collector always aggregates.
func (c *Collector) Enabled() bool { return true }

// RecordRound folds one MPC round into the cumulative round-level metrics.
func (c *Collector) RecordRound(ev RoundEvent) {
	c.MPCRounds.Inc()
	c.MPCRequests.Add(int64(ev.Requests))
	c.MPCGranted.Add(int64(ev.Granted))
	c.DroppedBids.Add(int64(ev.Dropped))
	c.MaxModuleLoad.Observe(int64(ev.MaxLoad))
	c.Imbalance.Observe(int64(ev.MaxLoad))
	for b, n := range ev.Contention {
		if n != 0 {
			c.ModuleLoad.AddBucket(b, int64(n))
		}
	}
}

// ObserveBatch folds one protocol batch into the batch-level metrics.
func (c *Collector) ObserveBatch(ev BatchEvent) {
	c.Batches.Inc()
	c.Requests.Add(int64(ev.Requests))
	c.Rounds.Add(int64(ev.Rounds))
	c.CopyAccesses.Add(int64(ev.CopyAccesses))
	c.GrantedBids.Add(int64(ev.GrantedBids))
	c.IssuedBids.Add(int64(ev.IssuedBids))
	c.Unfinished.Add(int64(ev.Unfinished))
	c.RetriedBids.Add(int64(ev.RetriedBids))
	c.StrandedRequests.Add(int64(ev.Stranded))
	c.MaxPhi.Observe(int64(ev.MaxPhi))
	c.RoundsPerBatch.Observe(int64(ev.Rounds))
	if ev.FailedModules > 0 {
		c.FaultBatches.Inc()
		c.FailedModules.Observe(int64(ev.FailedModules))
		c.FaultRounds.Observe(int64(ev.Rounds))
	}
}

// ObserveRepair folds one background-repair step into the cumulative
// metrics. The step's MPC traffic (rounds, issued, granted bids) is added
// to the batch-level Rounds/IssuedBids/GrantedBids counters: the protocol
// deliberately keeps repair out of its per-batch Metrics books, so without
// this fold a round-level trace would show more rounds than the batch
// metrics account for and the exact crosscheck would fail.
func (c *Collector) ObserveRepair(ev RepairEvent) {
	c.RepairedCopies.Add(int64(ev.Copies))
	c.RepairSalvaged.Add(int64(ev.Salvaged))
	c.RepairRounds.Add(int64(ev.Rounds))
	c.RepairCertified.Add(int64(ev.Certified))
	c.RepairBacklog.Set(int64(ev.Backlog))
	c.Rounds.Add(int64(ev.Rounds))
	c.IssuedBids.Add(int64(ev.Issued))
	c.GrantedBids.Add(int64(ev.Granted))
}

// ObserveFlush counts one dispatcher batch flush by cause.
func (c *Collector) ObserveFlush(cause FlushCause) {
	if cause >= 0 && cause < numFlushCauses {
		c.Flushes[cause].Inc()
	}
}

// ObserveRingDepth samples the shard's admission-ring occupancy.
// The caller samples (every 64th admission) rather than observing every op,
// keeping the shared histogram cache lines off the lock-free hot path.
func (c *Collector) ObserveRingDepth(depth int64) {
	c.RingDepth.Observe(depth)
	c.MaxRingDepth.Observe(depth)
}

// ObserveFlusherPark counts the shard flusher blocking on an empty ring.
func (c *Collector) ObserveFlusherPark() { c.FlusherParks.Inc() }

// ObserveFlusherWake counts a producer kick that un-parked the flusher.
// Parks without a matching wake were resolved by the flusher's own
// re-check (the Dekker handshake's benign race).
func (c *Collector) ObserveFlusherWake() { c.FlusherWakes.Inc() }

// ObserveResolverResidency records a compiled resolver's residency: resident
// compiled blocks and table bytes.
func (c *Collector) ObserveResolverResidency(shards int, bytes uint64) {
	c.ResolverShards.Set(int64(shards))
	c.ResolverBytes.Set(int64(bytes))
}

// Snapshot returns every scalar metric by name (histograms contribute their
// count and sum). The map is freshly allocated; keys are stable and sorted
// iteration gives a deterministic listing.
func (c *Collector) Snapshot() map[string]int64 {
	m := make(map[string]int64, 22+int(numFlushCauses))
	c.SnapshotInto("", m)
	return m
}

// SnapshotInto writes the Snapshot metrics into dst with every key prefixed
// by label. The shard layer uses it to merge per-shard collectors into one
// labeled map ("shard3_batches_total", …) without allocating a map per
// shard.
func (c *Collector) SnapshotInto(label string, dst map[string]int64) {
	m := map[string]int64{
		"batches_total":             c.Batches.Load(),
		"batch_requests_total":      c.Requests.Load(),
		"batch_rounds_total":        c.Rounds.Load(),
		"copy_accesses_total":       c.CopyAccesses.Load(),
		"granted_bids_total":        c.GrantedBids.Load(),
		"issued_bids_total":         c.IssuedBids.Load(),
		"unfinished_requests_total": c.Unfinished.Load(),
		"retried_bids_total":        c.RetriedBids.Load(),
		"stranded_requests_total":   c.StrandedRequests.Load(),
		"dropped_bids_total":        c.DroppedBids.Load(),
		"fault_batches_total":       c.FaultBatches.Load(),
		"max_failed_modules":        c.FailedModules.Load(),
		"fault_rounds_count":        c.FaultRounds.Count(),
		"fault_rounds_sum":          c.FaultRounds.Sum(),
		"max_phi":                   c.MaxPhi.Load(),
		"rounds_per_batch_count":    c.RoundsPerBatch.Count(),
		"rounds_per_batch_sum":      c.RoundsPerBatch.Sum(),
		"mpc_rounds_total":          c.MPCRounds.Load(),
		"mpc_requests_total":        c.MPCRequests.Load(),
		"mpc_granted_total":         c.MPCGranted.Load(),
		"max_module_load":           c.MaxModuleLoad.Load(),
		"module_load_count":         c.ModuleLoad.Count(),
		"module_load_sum":           c.ModuleLoad.Sum(),
		"round_max_load_count":      c.Imbalance.Count(),
		"round_max_load_sum":        c.Imbalance.Sum(),
		"ring_depth_count":          c.RingDepth.Count(),
		"ring_depth_sum":            c.RingDepth.Sum(),
		"max_ring_depth":            c.MaxRingDepth.Load(),
		"flusher_parks_total":       c.FlusherParks.Load(),
		"flusher_wakes_total":       c.FlusherWakes.Load(),
		"resolver_compiled_shards":  c.ResolverShards.Load(),
		"resolver_resident_bytes":   c.ResolverBytes.Load(),
		"repaired_copies_total":     c.RepairedCopies.Load(),
		"repair_salvaged_total":     c.RepairSalvaged.Load(),
		"repair_rounds_total":       c.RepairRounds.Load(),
		"repair_certified_total":    c.RepairCertified.Load(),
		"repair_backlog":            c.RepairBacklog.Load(),
	}
	for cause := FlushCause(0); cause < numFlushCauses; cause++ {
		m["flushes_"+cause.String()+"_total"] = c.Flushes[cause].Load()
	}
	for k, v := range m {
		dst[label+k] = v
	}
}

// PublishExpvar registers the collector under the given expvar name (e.g.
// "detshmem"), visible at /debug/vars on any server using the default mux.
// expvar panics on duplicate names, so call it once per process per name.
func (c *Collector) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return c.Snapshot() }))
}

// promNamespace prefixes every metric WritePrometheus emits.
const promNamespace = "detshmem"

// WritePrometheus writes the collector in the Prometheus text exposition
// format (version 0.0.4): counters, gauges, and cumulative-bucket
// histograms. The output is deterministic for a given state, which the
// golden-file test relies on.
func (c *Collector) WritePrometheus(w io.Writer) error {
	type scalar struct {
		name, help, typ string
		value           int64
	}
	scalars := []scalar{
		{"batches_total", "Protocol batches completed.", "counter", c.Batches.Load()},
		{"batch_requests_total", "Requests across completed batches.", "counter", c.Requests.Load()},
		{"batch_rounds_total", "MPC rounds consumed by completed batches.", "counter", c.Rounds.Load()},
		{"copy_accesses_total", "Copies consumed by quorums.", "counter", c.CopyAccesses.Load()},
		{"granted_bids_total", "Module grants, including cancelled bids.", "counter", c.GrantedBids.Load()},
		{"issued_bids_total", "Bids handed to the MPC across all rounds.", "counter", c.IssuedBids.Load()},
		{"unfinished_requests_total", "Requests that missed their quorum.", "counter", c.Unfinished.Load()},
		{"retried_bids_total", "Bids re-selected onto surviving copies after faults.", "counter", c.RetriedBids.Load()},
		{"stranded_requests_total", "Requests whose live copies fell below quorum.", "counter", c.StrandedRequests.Load()},
		{"dropped_bids_total", "Bids dropped at failed modules before arbitration.", "counter", c.DroppedBids.Load()},
		{"fault_batches_total", "Batches that finished with at least one failed module.", "counter", c.FaultBatches.Load()},
		{"max_failed_modules", "Most failed modules observed at a batch end.", "gauge", c.FailedModules.Load()},
		{"max_phi", "Largest per-batch phi (max phase iterations).", "gauge", c.MaxPhi.Load()},
		{"mpc_rounds_total", "MPC rounds recorded.", "counter", c.MPCRounds.Load()},
		{"mpc_requests_total", "Live requests across recorded rounds.", "counter", c.MPCRequests.Load()},
		{"mpc_granted_total", "Grants across recorded rounds.", "counter", c.MPCGranted.Load()},
		{"max_module_load", "Worst per-module congestion observed in any round.", "gauge", c.MaxModuleLoad.Load()},
		{"max_ring_depth", "Deepest shard admission-ring occupancy observed.", "gauge", c.MaxRingDepth.Load()},
		{"flusher_parks_total", "Shard flusher parks on an idle admission ring.", "counter", c.FlusherParks.Load()},
		{"flusher_wakes_total", "Producer kicks that un-parked a shard flusher.", "counter", c.FlusherWakes.Load()},
		{"resolver_compiled_shards", "Compiled resolver blocks resident (1 = the dense table).", "gauge", c.ResolverShards.Load()},
		{"resolver_resident_bytes", "Compiled resolver table bytes resident.", "gauge", c.ResolverBytes.Load()},
		{"repaired_copies_total", "Copies rebuilt onto repairing modules by repair writes.", "counter", c.RepairedCopies.Load()},
		{"repair_salvaged_total", "Variables rebuilt without a sound source majority.", "counter", c.RepairSalvaged.Load()},
		{"repair_rounds_total", "MPC rounds spent on background repair waves.", "counter", c.RepairRounds.Load()},
		{"repair_certified_total", "Modules certified fully live after rebuild.", "counter", c.RepairCertified.Load()},
		{"repair_backlog", "Modules still under repair after the latest step.", "gauge", c.RepairBacklog.Load()},
	}
	for _, s := range scalars {
		if err := writeScalar(w, s.name, s.help, s.typ, s.value); err != nil {
			return err
		}
	}
	type labeled struct {
		label string
		value int64
	}
	flushes := make([]labeled, 0, int(numFlushCauses))
	for cause := FlushCause(0); cause < numFlushCauses; cause++ {
		flushes = append(flushes, labeled{cause.String(), c.Flushes[cause].Load()})
	}
	sort.Slice(flushes, func(i, j int) bool { return flushes[i].label < flushes[j].label })
	name := promNamespace + "_frontend_flushes_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Frontend batch flushes by cause.\n# TYPE %s counter\n", name, name); err != nil {
		return err
	}
	for _, fl := range flushes {
		if _, err := fmt.Fprintf(w, "%s{cause=%q} %d\n", name, fl.label, fl.value); err != nil {
			return err
		}
	}
	hists := []struct {
		name, help string
		h          *Histogram
	}{
		{"rounds_per_batch", "MPC rounds per protocol batch.", &c.RoundsPerBatch},
		{"fault_rounds", "MPC rounds per batch while modules were failed (round inflation).", &c.FaultRounds},
		{"module_load", "Per-module per-round request load (merged lower-bound sum).", &c.ModuleLoad},
		{"round_max_load", "Per-round maximum module load (imbalance).", &c.Imbalance},
		{"ring_depth", "Shard admission-ring occupancy (sampled every 64th admission).", &c.RingDepth},
	}
	for _, hs := range hists {
		if err := writeHistogram(w, hs.name, hs.help, hs.h); err != nil {
			return err
		}
	}
	return nil
}

func writeScalar(w io.Writer, name, help, typ string, v int64) error {
	full := promNamespace + "_" + name
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", full, help, full, typ, full, v)
	return err
}

func writeHistogram(w io.Writer, name, help string, h *Histogram) error {
	full := promNamespace + "_" + name
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", full, help, full); err != nil {
		return err
	}
	buckets := h.Buckets()
	cum := int64(0)
	for b, n := range buckets {
		cum += n
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", full, BucketUpper(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", full, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", full, h.Sum(), full, h.Count())
	return err
}
