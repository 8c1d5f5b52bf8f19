// Package consistency is the black-box auditing layer: it certifies (or
// refutes) the memory system's consistency guarantees from client-visible
// read/write traces alone, with no access to the implementation's commit
// order, admission sequence, or internals.
//
// The repo's strongest internal test — the seq-ordered differential oracle —
// needs the global commit sequence the dispatchers assign, so it can only
// audit an in-process backend. This package implements the trace-based
// alternative from Wei et al., "Verifying PRAM Consistency over Read/Write
// Traces of Data Replicas" (arXiv:1302.5161): given only what each client
// submitted and what each read returned, decide whether a legal ordering of
// the operations exists. Because it needs nothing but the traces, it can
// certify any backend — including a future networked one — which is the
// verification story for every scaling direction in the ROADMAP.
//
// Two consistency models are checkable (see Mode):
//
//   - PRAM (FIFO) consistency plus read-your-writes: for every client there
//     is a serialization of all writes and that client's reads respecting
//     every client's program order, in which each read returns the latest
//     preceding write. A one-shard shard.Service totally orders its
//     operations, so it must pass this check.
//   - Per-variable sequential consistency: for every variable there is a
//     single total order of all operations on it, respecting program order,
//     in which each read returns the latest preceding write. A sharded
//     service must pass this check. It has no real-time order, so it is
//     weaker than the per-variable linearizability internal/shard
//     documents: a read that starts after a write to its variable completed
//     may return an older value and still certify (ROADMAP item 5).
//
// Both checks require the "data uniqueness" condition of Wei et al.: no two
// writes to the same variable store the same value, so every read has an
// unambiguous dictating write. The Recorder below manufactures unique
// nonzero values for exactly this reason; Check rejects traces that violate
// uniqueness rather than guessing.
package consistency

import (
	"encoding/json"
	"fmt"
	"io"
)

// Op is one client-visible operation: a write of Val to Var, or a read of
// Var that returned Val. Failed marks operations whose future resolved with
// an error (e.g. protocol.ErrQuorumUnreachable in degraded mode): they
// carry no consistency obligation and are excluded from checking — except
// that a failed write whose value is later read must have taken effect
// after all, and is reinstated (see Report.Resurrected).
type Op struct {
	Write  bool   `json:"w,omitempty"`
	Var    uint64 `json:"var"`
	Val    uint64 `json:"val"`
	Failed bool   `json:"failed,omitempty"`
}

func (o Op) String() string {
	k := "read"
	if o.Write {
		k = "write"
	}
	s := fmt.Sprintf("%s(var=%d, val=%d)", k, o.Var, o.Val)
	if o.Failed {
		s += "[failed]"
	}
	return s
}

// Trace is a set of per-client operation streams: Trace[c] lists client c's
// operations in its program order. This is the checker's whole input — no
// timestamps, no commit sequence, nothing the clients could not observe
// themselves.
type Trace [][]Op

// Ops counts the operations in the trace.
func (t Trace) Ops() int {
	n := 0
	for _, c := range t {
		n += len(c)
	}
	return n
}

// Contract names the consistency guarantee a recorded run's service
// promised, so an offline checker knows which Mode(s) must certify.
type Contract string

const (
	// ContractTotalOrder: the service serializes all operations (a
	// shard.Service with S=1). Both ModePRAM and ModePerVariable must
	// certify.
	ContractTotalOrder Contract = "total-order"
	// ContractPerVariable: the service is linearizable per variable only
	// (a sharded service with S>1 — no cross-variable order exists, so
	// ModePRAM may legitimately fail). Only ModePerVariable must certify.
	ContractPerVariable Contract = "per-variable"
)

// Run is one recorded execution: a label, the contract the service under
// test promised, and the per-client trace.
type Run struct {
	Label    string   `json:"label"`
	Contract Contract `json:"contract"`
	Clients  Trace    `json:"clients"`
}

// TraceSet is the JSON artifact cmd/netcluster's drills write and
// cmd/consistencycheck ingests: one Run per recorded execution (every drive
// against one service instance belongs to the same Run, since they share its
// store).
type TraceSet struct {
	Runs []Run `json:"runs"`
}

// WriteJSON writes the trace set as indented JSON.
func (ts *TraceSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}

// ReadTraceSet parses a TraceSet from JSON. It accepts a bare TraceSet
// ({"runs": [...]}) and a single Run ({"label": ..., "clients": [...]}).
func ReadTraceSet(r io.Reader) (*TraceSet, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Runs    []Run  `json:"runs"`
		Label   string `json:"label"`
		Clients Trace  `json:"clients"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return nil, fmt.Errorf("consistency: parsing trace: %w", err)
	}
	switch {
	case len(probe.Runs) > 0:
		return &TraceSet{Runs: probe.Runs}, nil
	case len(probe.Clients) > 0:
		return &TraceSet{Runs: []Run{{Label: probe.Label, Contract: ContractTotalOrder, Clients: probe.Clients}}}, nil
	}
	return nil, fmt.Errorf("consistency: no runs found in trace input")
}

// Recorder accumulates recorded runs. It hands out one RunRecorder per
// measured cell; the per-client ClientRecorders are lock-free (each belongs
// to exactly one client goroutine at a time).
type Recorder struct {
	runs []*RunRecorder
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Run opens a new recorded run with the given client count. Not safe for
// concurrent use with itself; experiments open runs sequentially.
func (r *Recorder) Run(label string, contract Contract, clients int) *RunRecorder {
	rr := &RunRecorder{label: label, contract: contract, clients: make([]ClientRecorder, clients)}
	for c := range rr.clients {
		rr.clients[c].id = uint64(c)
	}
	r.runs = append(r.runs, rr)
	return rr
}

// TraceSet snapshots every recorded run. Call after all drives finished.
func (r *Recorder) TraceSet() *TraceSet {
	ts := &TraceSet{}
	for _, rr := range r.runs {
		tr := make(Trace, len(rr.clients))
		for c := range rr.clients {
			tr[c] = rr.clients[c].ops
		}
		ts.Runs = append(ts.Runs, Run{Label: rr.label, Contract: rr.contract, Clients: tr})
	}
	return ts
}

// RunRecorder collects one run's per-client streams.
type RunRecorder struct {
	label    string
	contract Contract
	clients  []ClientRecorder
}

// Client returns client c's recorder. The caller must ensure only one
// goroutine uses it at a time (successive drives against the same service
// may reuse client ids; the drives themselves are sequential).
func (rr *RunRecorder) Client(c int) *ClientRecorder { return &rr.clients[c] }

// ClientRecorder records one client's operations in program order and
// mints the unique write values the checker's data-uniqueness condition
// requires.
type ClientRecorder struct {
	id  uint64
	seq uint64
	ops []Op
}

// WriteValue returns the next unique nonzero value for this client to
// write: client id in the high bits, a per-client counter below. Values
// never collide across clients of one run and never equal the store's
// initial 0.
func (cr *ClientRecorder) WriteValue() uint64 {
	cr.seq++
	return (cr.id+1)<<40 | cr.seq
}

// Record appends one completed operation. failed marks operations whose
// future resolved with an error; their values carry no meaning.
func (cr *ClientRecorder) Record(write bool, v, val uint64, failed bool) {
	cr.ops = append(cr.ops, Op{Write: write, Var: v, Val: val, Failed: failed})
}
