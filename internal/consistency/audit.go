package consistency

import (
	"fmt"
	"math"
	"sync/atomic"

	"detshmem/internal/obs"
)

// AuditConfig tunes the always-on sampling audit.
type AuditConfig struct {
	// Rate is the fraction of the variable space audited, in (0, 1].
	// Sampling is by variable, not by operation: either every operation on
	// a variable is audited or none is, so the audited sub-history is
	// complete per variable and mismatches are real. 0 disables auditing.
	Rate float64
	// Slots sizes the last-known-value table (rounded up to a power of
	// two). Each slot tracks one sampled variable; when two sampled
	// variables collide the older one is evicted (counted, never a false
	// alarm). 0 defaults to 1024.
	Slots int
	// Ring sizes the recent-operation ring CheckNow replays through the
	// full trace checker. 0 defaults to 4096; negative disables the ring.
	Ring int
	// Collector, when set, additionally surfaces the audit counters
	// through the obs layer (audit_sampled_total, audit_violations_total,
	// audit_evictions_total).
	Collector *obs.Collector
}

// AuditStats is a snapshot of the audit counters.
type AuditStats struct {
	Sampled    int64 // operations audited (on sampled variables)
	Violations int64 // audited reads contradicting the last known value
	Evictions  int64 // slots reclaimed for a different sampled variable
}

// AuditViolationSample captures one detected violation for diagnosis.
type AuditViolationSample struct {
	Var  uint64 `json:"var"`
	Want uint64 `json:"want"` // last value the audit knew for Var
	Got  uint64 `json:"got"`  // what the read returned
}

// auditSlot states.
const (
	slotEmpty   = uint32(iota)
	slotKnown   // val is the variable's current committed value
	slotUnknown // a failed write left the value uncertain
)

type auditSlot struct {
	v     uint64
	val   uint64
	state uint32
}

// maxViolationSamples bounds the captured violation details.
const maxViolationSamples = 8

// Auditor is the always-on sampling consistency audit. A dispatcher feeds
// it every completed operation in commit order (shard.Config.Audit); it
// shadows the store for a deterministic ~Rate sample of the variable space
// and checks each audited read against the
// last value it saw committed there — the per-variable-linearizability
// contract at full fidelity for the sampled variables.
//
// Hot-path discipline matches the obs layer: AuditRead, AuditWrite and
// AuditFailed never allocate, never lock, and touch one table slot each.
// The dispatcher's flusher goroutine is the only writer; Stats, Snapshot
// and the violation counters may be read concurrently (the counters are
// atomics; slot memory is single-writer).
type Auditor struct {
	thresh uint64 // sample iff mix64(v) <= thresh
	mask   uint64
	slots  []auditSlot

	sampled    atomic.Int64
	violations atomic.Int64
	evictions  atomic.Int64

	nSamples atomic.Int32
	samples  [maxViolationSamples]AuditViolationSample

	col *obs.Collector // nil when not wired into obs

	// Recent-op ring for CheckNow; single-writer, len(ring) is the
	// capacity, head the next write position, filled the count stored.
	ring   []Op
	head   int
	filled int
}

// NewAuditor builds an auditor; returns nil when cfg.Rate <= 0 (auditing
// disabled — a nil *Auditor is a valid "off" value for the dispatchers).
func NewAuditor(cfg AuditConfig) *Auditor {
	if cfg.Rate <= 0 {
		return nil
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1024
	}
	slots := 1
	for slots < cfg.Slots {
		slots <<= 1
	}
	a := &Auditor{
		mask:  uint64(slots - 1),
		slots: make([]auditSlot, slots),
		col:   cfg.Collector,
	}
	if cfg.Rate >= 1 {
		a.thresh = math.MaxUint64
	} else {
		a.thresh = uint64(cfg.Rate * float64(math.MaxUint64))
	}
	if cfg.Ring == 0 {
		cfg.Ring = 4096
	}
	if cfg.Ring > 0 {
		a.ring = make([]Op, cfg.Ring)
	}
	return a
}

// mix64 is the murmur3 fmix64 finalizer — deliberately a different mixer
// than shard.Route's splitmix64, so the audited sample cuts across shards
// instead of aliasing the routing partition (with Route's mixer, a 1/S
// sample and S shards would audit exactly shard 0).
func mix64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Sampled reports whether operations on v are audited.
func (a *Auditor) Sampled(v uint64) bool { return mix64(v) <= a.thresh }

// AuditWrite observes one committed write in commit order.
func (a *Auditor) AuditWrite(v, val uint64) {
	h := mix64(v)
	if h > a.thresh {
		return
	}
	a.sampled.Add(1)
	if a.col != nil {
		a.col.ObserveAudit(false)
	}
	s := &a.slots[h&a.mask]
	if s.state != slotEmpty && s.v != v {
		a.evictions.Add(1)
		if a.col != nil {
			a.col.ObserveAuditEviction()
		}
	}
	s.v, s.val, s.state = v, val, slotKnown
	a.record(Op{Write: true, Var: v, Val: val})
}

// AuditRead observes one committed read in commit order and checks it
// against the last known value of its variable.
func (a *Auditor) AuditRead(v, val uint64) {
	h := mix64(v)
	if h > a.thresh {
		return
	}
	a.sampled.Add(1)
	s := &a.slots[h&a.mask]
	violated := s.state == slotKnown && s.v == v && s.val != val
	if violated {
		a.violations.Add(1)
		if n := a.nSamples.Load(); n < maxViolationSamples {
			a.samples[n] = AuditViolationSample{Var: v, Want: s.val, Got: val}
			a.nSamples.Store(n + 1)
		}
	}
	if a.col != nil {
		a.col.ObserveAudit(violated)
	}
	// Adopt the read as the new truth — on a miss or eviction it restores
	// coverage; after a violation it stops one corruption from cascading
	// into a violation per subsequent read.
	if s.state != slotEmpty && s.v != v {
		a.evictions.Add(1)
		if a.col != nil {
			a.col.ObserveAuditEviction()
		}
	}
	s.v, s.val, s.state = v, val, slotKnown
	a.record(Op{Var: v, Val: val})
}

// AuditFailed observes one operation whose request failed (e.g. stranded
// under faults); val is the value a failed write carried (ignored for
// reads). A failed write leaves the variable's value uncertain — it may or
// may not have landed — so the slot degrades to unknown until the next
// successful operation re-establishes it. A failed read reveals nothing
// and changes nothing.
func (a *Auditor) AuditFailed(v, val uint64, write bool) {
	h := mix64(v)
	if h > a.thresh {
		return
	}
	a.sampled.Add(1)
	if a.col != nil {
		a.col.ObserveAudit(false)
	}
	if !write {
		return
	}
	s := &a.slots[h&a.mask]
	if s.state != slotEmpty && s.v == v {
		s.state = slotUnknown
	}
	a.record(Op{Write: true, Var: v, Val: val, Failed: true})
}

// record appends one audited op to the ring (single-writer, no alloc).
func (a *Auditor) record(op Op) {
	if a.ring == nil {
		return
	}
	a.ring[a.head] = op
	a.head++
	if a.head == len(a.ring) {
		a.head = 0
	}
	if a.filled < len(a.ring) {
		a.filled++
	}
}

// Stats snapshots the audit counters; safe to call concurrently with the
// hot path.
func (a *Auditor) Stats() AuditStats {
	if a == nil {
		return AuditStats{}
	}
	return AuditStats{
		Sampled:    a.sampled.Load(),
		Violations: a.violations.Load(),
		Evictions:  a.evictions.Load(),
	}
}

// ViolationSamples returns the captured details of the first detected
// violations (at most 8); safe to call concurrently with the hot path.
func (a *Auditor) ViolationSamples() []AuditViolationSample {
	if a == nil {
		return nil
	}
	n := int(a.nSamples.Load())
	out := make([]AuditViolationSample, n)
	copy(out, a.samples[:n])
	return out
}

// CheckNow replays the recent-operation ring through the full trace
// checker in per-variable mode and returns its report — the audited
// sub-history with real counterexamples, not just a mismatch count. The
// dispatcher must be quiesced (Flush'd and idle) when calling: the ring is
// single-writer and CheckNow reads it without synchronization.
//
// The ring holds a suffix of the audited history, so context that rotated
// out is compensated for: reads whose nonzero value no ring write stored
// are dropped (their dictating write predates the ring and they would read
// as phantoms). Reads of the initial 0 are kept — in commit order they are
// only legal before any write to the variable, which the checker verifies.
func (a *Auditor) CheckNow() *Report {
	if a == nil || a.ring == nil {
		return &Report{Mode: ModePerVariable.String(), OK: true}
	}
	n := a.filled
	ops := make([]Op, 0, n)
	start := a.head - n
	if start < 0 {
		start += len(a.ring)
	}
	inRing := make(map[[2]uint64]bool, n)
	for i := 0; i < n; i++ {
		op := a.ring[(start+i)%len(a.ring)]
		if op.Write {
			inRing[[2]uint64{op.Var, op.Val}] = true
		}
	}
	for i := 0; i < n; i++ {
		op := a.ring[(start+i)%len(a.ring)]
		if !op.Write && op.Val != 0 && !inRing[[2]uint64{op.Var, op.Val}] {
			continue // dictating write rotated out of the ring
		}
		ops = append(ops, op)
	}
	return Check(Trace{ops}, ModePerVariable)
}

// String summarizes the audit state for logs.
func (a *Auditor) String() string {
	if a == nil {
		return "audit(off)"
	}
	st := a.Stats()
	return fmt.Sprintf("audit(sampled=%d violations=%d evictions=%d)", st.Sampled, st.Violations, st.Evictions)
}
