package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// DefaultTraceCap is the ring capacity NewTracer uses for capacity ≤ 0.
const DefaultTraceCap = 1 << 16

// TraceTotals are a tracer's running sums over every recorded event,
// maintained outside the ring so they stay exact after wrap-around. They are
// the quantities the trace-replay tests cross-check against
// protocol.Metrics: Rounds must equal the summed TotalRounds and Granted the
// summed GrantedBids of the batches the traced machines executed.
type TraceTotals struct {
	Rounds   uint64 `json:"rounds"`   // events recorded (MPC rounds)
	Requests uint64 `json:"requests"` // Σ per-round live requests
	Granted  uint64 `json:"granted"`  // Σ per-round grants
	MaxLoad  int    `json:"max_load"` // max per-module load ever seen
	// DroppedBids is Σ per-round bids dropped at failed modules, so
	// Requests+DroppedBids balances against the protocol's issued bids
	// exactly even under faults. (Distinct from Tracer.Dropped, which
	// counts ring-overwritten events.)
	DroppedBids uint64 `json:"dropped_bids"`
}

// Tracer is a fixed-capacity ring buffer of RoundEvents. Recording is
// allocation-free in steady state; when the ring is full the oldest event
// is overwritten and counted in Dropped, while Totals stay exact. It is
// safe for concurrent use: several machines (the shards of a service) may
// record into one tracer while readers dump it.
type Tracer struct {
	mu      sync.Mutex
	ring    []RoundEvent
	next    int // next write slot
	n       int // events currently held (≤ len(ring))
	dropped uint64
	totals  TraceTotals
}

// NewTracer builds a tracer holding the last capacity events
// (DefaultTraceCap when capacity ≤ 0). The ring is allocated up front so
// RecordRound never allocates.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: make([]RoundEvent, capacity)}
}

// Enabled reports true: a tracer always captures.
func (t *Tracer) Enabled() bool { return true }

// RecordRound appends the event, overwriting the oldest when full.
func (t *Tracer) RecordRound(ev RoundEvent) {
	t.mu.Lock()
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	if t.n < len(t.ring) {
		t.n++
	} else {
		t.dropped++
	}
	t.totals.Rounds++
	t.totals.Requests += uint64(ev.Requests)
	t.totals.Granted += uint64(ev.Granted)
	t.totals.DroppedBids += uint64(ev.Dropped)
	if ev.MaxLoad > t.totals.MaxLoad {
		t.totals.MaxLoad = ev.MaxLoad
	}
	t.mu.Unlock()
}

// Events returns the buffered events oldest-first (a copy).
func (t *Tracer) Events() []RoundEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RoundEvent, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out[i] = t.ring[(start+i)%len(t.ring)]
	}
	return out
}

// Totals returns the running sums over all recorded events, including any
// that have been overwritten.
func (t *Tracer) Totals() TraceTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// TraceDump is the JSON shape WriteJSON emits: exact running totals, the
// buffered tail of per-round events, and how many earlier events the ring
// dropped (0 means Events is the complete trajectory).
type TraceDump struct {
	Totals  TraceTotals  `json:"totals"`
	Dropped uint64       `json:"dropped"`
	Events  []RoundEvent `json:"events"`
}

// WriteJSON writes the tracer's state as an indented JSON document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	dump := TraceDump{Totals: t.Totals(), Dropped: t.Dropped(), Events: t.Events()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
