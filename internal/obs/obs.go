// Package obs is the observability layer: round-level tracing and
// cumulative metrics for the MPC engine, the access protocol, and the
// combining frontend.
//
// The design constraint is that instrumentation must cost nothing when it is
// off: the hot paths (mpc.Machine.Round, the whole
// protocol.System.AccessInto batch loop) guard every event computation
// behind Recorder.Enabled(), and the default no-op recorder reports false,
// so the steady-state zero-allocation guarantees of PR 2 are preserved with
// instrumentation compiled in. When a real recorder is attached the per-
// round event assembly is one O(P) sweep plus ring-buffer or atomic writes —
// no allocation in steady state either.
//
// Three pieces compose:
//
//   - Recorder / RoundEvent: the per-round hook the MPC engine calls after
//     every claim/grant/reset sweep, carrying the round index, live request
//     count, granted copies and the per-module contention histogram.
//   - Tracer: a fixed-capacity ring buffer of RoundEvents with running
//     totals that survive ring wrap-around, dumpable as a JSON trajectory
//     (the Theorem 6 round-trajectory plot is made from this).
//   - Collector: cumulative atomic counters and power-of-two histograms fed
//     from three levels (round events, per-batch protocol metrics, frontend
//     dispatcher), exported via expvar and a Prometheus text-format writer.
package obs

import "math/bits"

// HistBuckets is the bucket count of every power-of-two histogram in this
// package: bucket b counts values v with 2^b ≤ v < 2^{b+1} (so bucket 0 is
// exactly 1); values ≥ 2^{HistBuckets-1} clamp into the last bucket, and
// zero or negative values are not observed.
const HistBuckets = 16

// bucketOf maps a positive value to its histogram bucket.
func bucketOf(v int64) int {
	b := bits.Len64(uint64(v)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket b (2^{b+1} − 1),
// the "le" label the Prometheus writer emits.
func BucketUpper(b int) int64 { return int64(1)<<(b+1) - 1 }

// LoadHist is one round's module-contention histogram: bucket b counts the
// modules whose request load this round fell in [2^b, 2^{b+1}). Idle
// modules are not counted.
type LoadHist [HistBuckets]uint32

// Observe counts one module with the given positive load.
func (h *LoadHist) Observe(load int) {
	if load > 0 {
		h[bucketOf(int64(load))]++
	}
}

// Modules returns the number of modules the histogram counted — the round's
// touched-module count, which by the MPC's one-grant-per-module rule equals
// the number of requests served.
func (h *LoadHist) Modules() int {
	n := 0
	for _, c := range h {
		n += int(c)
	}
	return n
}

// RoundEvent is one MPC round as seen by a Recorder.
type RoundEvent struct {
	// Round is the machine-relative round index (Machine.Rounds() at the
	// time the round executed, i.e. 0 for a fresh machine's first round).
	Round uint64 `json:"round"`
	// Requests is the number of processors bidding (non-Idle) this round.
	Requests int `json:"requests"`
	// Granted is the number of requests served — equal to the number of
	// distinct modules addressed, by the one-grant-per-module rule.
	Granted int `json:"granted"`
	// MaxLoad is the largest per-module request count (the congestion the
	// Pietracaprina–Preparata organization exists to minimize).
	MaxLoad int `json:"max_load"`
	// Contention is the full per-module load histogram.
	Contention LoadHist `json:"contention"`
	// Dropped is the number of bids dropped before arbitration because they
	// addressed a failed module (mpc.Failing annotates this); 0 on a
	// healthy machine. Requests counts only the surviving bids, so
	// Requests+Dropped is what the protocol layer actually issued.
	Dropped int `json:"dropped,omitempty"`
}

// Recorder receives one event per executed MPC round. Implementations must
// be safe for use from a single machine coordinator goroutine; Tracer and
// Collector are additionally safe for concurrent readers.
type Recorder interface {
	// Enabled reports whether the caller should assemble events at all.
	// Hot paths skip the contention sweep entirely when it returns false.
	Enabled() bool
	// RecordRound consumes one round's event.
	RecordRound(ev RoundEvent)
}

// Nop is the default recorder: disabled, records nothing, costs one
// predictable interface call per round.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Enabled() bool          { return false }
func (nopRecorder) RecordRound(RoundEvent) {}

// Multi fans events out to several recorders. Nil and permanently disabled
// recorders are dropped at construction; if nothing remains, Nop is
// returned so the hot-path guard stays cheap.
func Multi(rs ...Recorder) Recorder {
	live := make([]Recorder, 0, len(rs))
	for _, r := range rs {
		if r != nil && r != Nop {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multiRecorder(live)
}

type multiRecorder []Recorder

func (m multiRecorder) Enabled() bool {
	for _, r := range m {
		if r.Enabled() {
			return true
		}
	}
	return false
}

func (m multiRecorder) RecordRound(ev RoundEvent) {
	for _, r := range m {
		if r.Enabled() {
			r.RecordRound(ev)
		}
	}
}

// BatchEvent is one protocol batch's cumulative metrics, as reported by
// protocol.System at the end of every Access/AccessInto. It mirrors the
// fields of protocol.Metrics that are meaningful cumulatively.
type BatchEvent struct {
	Requests     int // requests in the batch
	Phases       int // phases played: the fewest whose bids fit N/(q+1)² modules, at most q+1
	Rounds       int // total MPC rounds (Σ phase iterations)
	MaxPhi       int // Φ: max iterations over phases
	CopyAccesses int // copies consumed by quorums
	GrantedBids  int // module grants, including cancelled bids
	IssuedBids   int // bids handed to the MPC across all rounds
	Unfinished   int // requests that missed their quorum
	// Fault-layer fields: zero on a healthy run.
	RetriedBids   int // bids re-selected onto surviving copies after faults
	Stranded      int // unfinished requests whose live copies fell below quorum
	FailedModules int // failed-module count when the batch finished
}

// BatchObserver receives one event per completed protocol batch. Collector
// implements it.
type BatchObserver interface {
	ObserveBatch(ev BatchEvent)
}

// RepairEvent is one background-repair step's work, as reported by
// protocol.System after every budget-bounded repair chunk (the per-batch
// pump and the shard dispatcher's idle-loop pump alike). Rounds, Issued and
// Granted are the step's MPC traffic: the protocol keeps repair out of its
// batch books (Metrics.TotalRounds/IssuedBids), so a collector that also
// records round traces must fold these in to keep the trace-vs-metrics
// crosscheck exact — Collector.ObserveRepair does.
type RepairEvent struct {
	Copies    int // target copies rebuilt (repair writes granted)
	Salvaged  int // variables rebuilt without a sound source majority
	Rounds    int // MPC rounds the step drove
	Issued    int // repair bids handed to the interconnect
	Granted   int // repair bids granted
	Certified int // modules certified fully live by this step
	Backlog   int // modules still under repair after the step
}

// RepairObserver receives one event per background-repair step. Collector
// implements it.
type RepairObserver interface {
	ObserveRepair(ev RepairEvent)
}

// ResolverObserver receives a compiled resolver's residency: how many
// compiled blocks are resident (1 for the dense table) and the resident table
// bytes. A protocol System built over a table reports it once, at
// construction, to an Observer that implements this interface, so the table's
// footprint shows up on /debug/vars and the Prometheus endpoint; a table-free
// System reports nothing. Collector implements it.
type ResolverObserver interface {
	ObserveResolverResidency(shards int, bytes uint64)
}

// MultiBatch fans batch events out to several observers, dropping nils. It
// returns nil when nothing remains, so callers can assign the result
// directly to an optional observer field.
func MultiBatch(os ...BatchObserver) BatchObserver {
	live := make([]BatchObserver, 0, len(os))
	for _, o := range os {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiBatch(live)
}

type multiBatch []BatchObserver

func (m multiBatch) ObserveBatch(ev BatchEvent) {
	for _, o := range m {
		o.ObserveBatch(ev)
	}
}

// ObserveRepair forwards repair-step events to every member that observes
// them. Without this, chaining a per-shard collector after a configured
// observer (shard.Config.Observe plus protocol.Config.Observer) would
// silently sever the repair accounting for both: protocol.System discovers
// its RepairObserver by type-asserting the one configured Observer, and a
// bare []BatchObserver fan-out would fail that assertion even though every
// member implements it.
func (m multiBatch) ObserveRepair(ev RepairEvent) {
	for _, o := range m {
		if ro, ok := o.(RepairObserver); ok {
			ro.ObserveRepair(ev)
		}
	}
}

// ObserveResolverResidency forwards resolver-residency updates the same
// way, for the same reason.
func (m multiBatch) ObserveResolverResidency(shards int, bytes uint64) {
	for _, o := range m {
		if ro, ok := o.(ResolverObserver); ok {
			ro.ObserveResolverResidency(shards, bytes)
		}
	}
}

// FlushCause labels why the frontend dispatcher flushed a batch.
type FlushCause int

const (
	// FlushSize: the batch reached MaxBatch distinct variables.
	FlushSize FlushCause = iota
	// FlushIdle: the submission queue ran dry.
	FlushIdle
	// FlushExplicit: an explicit Flush or Close.
	FlushExplicit
	// FlushConflict: a write-after-issued-read conflict.
	FlushConflict
	numFlushCauses
)

func (c FlushCause) String() string {
	switch c {
	case FlushSize:
		return "size"
	case FlushIdle:
		return "idle"
	case FlushExplicit:
		return "explicit"
	case FlushConflict:
		return "conflict"
	}
	return "unknown"
}
