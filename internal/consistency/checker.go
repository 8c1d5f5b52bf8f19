package consistency

import (
	"fmt"
	"sort"
)

// Mode selects which consistency model Check certifies.
type Mode int

const (
	// ModePRAM checks PRAM (FIFO) consistency with read-your-writes, per
	// Wei et al.: for every client p there must exist a serialization of
	// all clients' writes plus p's reads that respects every client's
	// program order and in which each of p's reads returns the latest
	// preceding write to its variable (or the initial 0 if none precedes).
	ModePRAM Mode = iota
	// ModePerVariable checks per-variable sequential consistency: for
	// every variable there must exist one total order of all operations on
	// it, shared by all clients, respecting program order, in which each
	// read returns the latest preceding write. Real-time order is not
	// checked, so this is weaker than the per-variable linearizability
	// internal/shard documents (see the package doc).
	ModePerVariable
)

func (m Mode) String() string {
	switch m {
	case ModePRAM:
		return "pram"
	case ModePerVariable:
		return "per-variable"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ModesFor returns the modes a run's recorded contract obliges to certify.
func ModesFor(c Contract) []Mode {
	if c == ContractPerVariable {
		return []Mode{ModePerVariable}
	}
	return []Mode{ModePRAM, ModePerVariable}
}

// Violation kinds.
const (
	// KindCycle: the constraint graph of some view has a cycle — no legal
	// serialization exists. Covers stale reads, value oscillation,
	// program-order inversions and fork-join anomalies.
	KindCycle = "cycle"
	// KindStaleInitialRead: a read returned the initial 0 although a write
	// to the same variable was provably visible before it (lost write /
	// read-your-writes violation).
	KindStaleInitialRead = "stale-initial-read"
	// KindPhantomRead: a read returned a value no write (not even a failed
	// one) ever stored — an uncommitted or corrupted value.
	KindPhantomRead = "phantom-read"
	// KindDuplicateWrite: two writes stored the same value to the same
	// variable, breaking the data-uniqueness precondition the checker
	// needs to attribute reads to writes.
	KindDuplicateWrite = "duplicate-write-value"
	// KindZeroWrite: a write stored 0, colliding with the initial value
	// and breaking data uniqueness the same way.
	KindZeroWrite = "zero-write-value"
)

// OpRef pins an operation to its position in the trace.
type OpRef struct {
	Client int `json:"client"`
	Index  int `json:"index"`
	Op     Op  `json:"op"`
}

func (r OpRef) String() string {
	return fmt.Sprintf("client %d op %d: %s", r.Client, r.Index, r.Op)
}

// Violation is one refutation, with a minimal counterexample: Ops lists the
// operations of the forcing chain (for KindCycle the chain is circular) and
// Why[i] justifies the ordering constraint from Ops[i] to Ops[i+1] (for
// cycles, Why[len-1] closes the loop back to Ops[0]).
type Violation struct {
	Kind    string   `json:"kind"`
	Mode    string   `json:"mode,omitempty"`
	View    string   `json:"view,omitempty"`
	Message string   `json:"message"`
	Ops     []OpRef  `json:"ops,omitempty"`
	Why     []string `json:"why,omitempty"`
}

// Report is the verdict of one Check invocation.
type Report struct {
	Mode          string      `json:"mode"`
	OK            bool        `json:"ok"`
	OpsChecked    int         `json:"ops_checked"`
	DroppedFailed int         `json:"dropped_failed"`
	Resurrected   int         `json:"resurrected"`
	Violations    []Violation `json:"violations,omitempty"`
}

// First returns the first violation, or nil when the trace certified.
func (r *Report) First() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// Check decides whether the trace is consistent under the given mode. A
// certifying report (OK=true) means a witnessing serialization exists; a
// refuting report carries at least one Violation with a minimal
// counterexample. Failed operations are excluded: failed reads always,
// failed writes unless a successful read returned their value (a stranded
// write that partially landed and became visible is reinstated and must
// then order like any other write).
func Check(tr Trace, mode Mode) *Report {
	return check(tr, mode, checkOpts{})
}

// checkOpts tunes the internal checker. noInference disables the two
// closure rules, leaving only program-order and read-from edges;
// noPreconditions suppresses the phantom/duplicate/zero-write verdicts.
// Together they make a deliberately broken checker that certifies almost
// anything — kept so the mutation suite can prove it runs red against a
// lobotomized implementation (i.e. the suite's assertions have teeth).
type checkOpts struct {
	noInference     bool
	noPreconditions bool
	maxViolations   int
}

func check(tr Trace, mode Mode, opts checkOpts) *Report {
	if opts.maxViolations <= 0 {
		opts.maxViolations = 8
	}
	cl := preprocess(tr)
	rep := &Report{
		Mode:          mode.String(),
		OpsChecked:    cl.kept,
		DroppedFailed: cl.dropped,
		Resurrected:   cl.resurrected,
	}
	if !opts.noPreconditions {
		rep.Violations = append(rep.Violations, cl.pre...)
	}
	if len(rep.Violations) < opts.maxViolations {
		for _, vw := range buildViews(cl, mode) {
			g := newGraph(vw, cl)
			if v := g.run(opts); v != nil {
				v.Mode = mode.String()
				v.View = vw.name
				rep.Violations = append(rep.Violations, *v)
				if len(rep.Violations) >= opts.maxViolations {
					break
				}
			}
		}
	}
	rep.OK = len(rep.Violations) == 0
	return rep
}

// --- preprocessing -------------------------------------------------------

type opRef struct{ client, index int }

// cop is a checkable (kept) operation with its original stream position.
type cop struct {
	op    Op
	index int
}

type cleaned struct {
	clients     [][]cop
	writerOf    map[[2]uint64]opRef // (var, value) -> its unique writer
	pre         []Violation         // precondition violations (phantom, duplicates)
	kept        int
	dropped     int
	resurrected int
}

func preprocess(tr Trace) *cleaned {
	cl := &cleaned{
		clients:  make([][]cop, len(tr)),
		writerOf: make(map[[2]uint64]opRef),
	}
	drop := make(map[opRef]bool)
	ref := func(r opRef) OpRef { return OpRef{Client: r.client, Index: r.index, Op: tr[r.client][r.index]} }

	// Pass 1: index every write (failed included — a stranded write's value
	// may surface later) and enforce data uniqueness.
	for c, ops := range tr {
		for i, op := range ops {
			if !op.Write {
				continue
			}
			r := opRef{c, i}
			if op.Val == 0 {
				cl.pre = append(cl.pre, Violation{
					Kind:    KindZeroWrite,
					Message: "write stores 0, colliding with the initial value; data uniqueness broken",
					Ops:     []OpRef{ref(r)},
				})
				drop[r] = true
				continue
			}
			key := [2]uint64{op.Var, op.Val}
			if prev, ok := cl.writerOf[key]; ok {
				cl.pre = append(cl.pre, Violation{
					Kind:    KindDuplicateWrite,
					Message: fmt.Sprintf("two writes store value %d to variable %d; data uniqueness broken", op.Val, op.Var),
					Ops:     []OpRef{ref(prev), ref(r)},
				})
				drop[r] = true
				continue
			}
			cl.writerOf[key] = r
		}
	}

	// Pass 2: attribute successful reads. A read of a failed write's value
	// resurrects that write; a read of a value nobody wrote is a phantom.
	resurrect := make(map[opRef]bool)
	for c, ops := range tr {
		for i, op := range ops {
			if op.Write || op.Failed || op.Val == 0 {
				continue
			}
			w, ok := cl.writerOf[[2]uint64{op.Var, op.Val}]
			if !ok {
				cl.pre = append(cl.pre, Violation{
					Kind:    KindPhantomRead,
					Message: fmt.Sprintf("read of variable %d returned %d, a value no write ever stored", op.Var, op.Val),
					Ops:     []OpRef{{Client: c, Index: i, Op: op}},
				})
				drop[opRef{c, i}] = true
				continue
			}
			if tr[w.client][w.index].Failed {
				resurrect[w] = true
			}
		}
	}

	// Pass 3: build the kept streams.
	for c, ops := range tr {
		for i, op := range ops {
			r := opRef{c, i}
			if drop[r] {
				continue
			}
			if op.Failed {
				if op.Write && resurrect[r] {
					cl.resurrected++
				} else {
					cl.dropped++
					continue
				}
			}
			cl.clients[c] = append(cl.clients[c], cop{op: op, index: i})
			cl.kept++
		}
	}
	return cl
}

// --- view construction ---------------------------------------------------

// view is one subproblem: a named subset of the kept operations whose
// constraint graph must be acyclic. viewNode i corresponds to
// cl.clients[nodes[i].client][...] with original index nodes[i].index.
type view struct {
	name  string
	nodes []OpRef
	// chains[c] lists this view's node ids belonging to client c, in
	// program order (the base edges).
	chains [][]int32
}

func buildViews(cl *cleaned, mode Mode) []view {
	switch mode {
	case ModePRAM:
		// One view per client that has at least one read: all clients'
		// writes plus that client's reads. A read-free view has only
		// program-order chains over writes — trivially acyclic — so it is
		// skipped.
		var out []view
		for p := range cl.clients {
			hasRead := false
			for _, co := range cl.clients[p] {
				if !co.op.Write {
					hasRead = true
					break
				}
			}
			if !hasRead {
				continue
			}
			vw := view{name: fmt.Sprintf("client %d", p), chains: make([][]int32, len(cl.clients))}
			for c, ops := range cl.clients {
				for _, co := range ops {
					if !co.op.Write && c != p {
						continue
					}
					vw.chains[c] = append(vw.chains[c], int32(len(vw.nodes)))
					vw.nodes = append(vw.nodes, OpRef{Client: c, Index: co.index, Op: co.op})
				}
			}
			out = append(out, vw)
		}
		return out
	case ModePerVariable:
		// One view per variable: all operations on it, from every client.
		perVar := make(map[uint64]*view)
		var vars []uint64
		for c, ops := range cl.clients {
			for _, co := range ops {
				vw := perVar[co.op.Var]
				if vw == nil {
					vw = &view{name: fmt.Sprintf("variable %d", co.op.Var), chains: make([][]int32, len(cl.clients))}
					perVar[co.op.Var] = vw
					vars = append(vars, co.op.Var)
				}
				vw.chains[c] = append(vw.chains[c], int32(len(vw.nodes)))
				vw.nodes = append(vw.nodes, OpRef{Client: c, Index: co.index, Op: co.op})
			}
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		out := make([]view, 0, len(vars))
		for _, v := range vars {
			out = append(out, *perVar[v])
		}
		return out
	}
	return nil
}

// --- the constraint-graph engine ----------------------------------------

type edgeWhy uint8

const (
	whyPO edgeWhy = iota
	whyReadFrom
	whyRule1 // w' visible before a read of w, so w' precedes w
	whyRule2 // r reads w and w precedes w'', so r precedes w''
)

type edge struct {
	to  int32
	why edgeWhy
	via int32 // the inducing read for whyRule1/whyRule2, else -1
}

// graph runs the closure check on one view. Node ids are view-local.
type graph struct {
	vw    view
	out   [][]edge
	seen  map[int64]struct{} // edge dedup: from<<32 | to
	dict  []int32            // per node: local id of the dictating write; -1 for non-reads and initial-value reads
	wvar  map[uint64][]int32 // var -> local write ids, in node order
	vars  []uint64           // sorted keys of wvar
	order []int32            // topo order scratch
	indeg []int32
	reach []uint64 // nodes × words reachability scratch, reused across groups
}

func newGraph(vw view, cl *cleaned) *graph {
	n := len(vw.nodes)
	g := &graph{
		vw:    vw,
		out:   make([][]edge, n),
		seen:  make(map[int64]struct{}, 2*n),
		dict:  make([]int32, n),
		wvar:  make(map[uint64][]int32),
		indeg: make([]int32, n),
	}
	// Index writes and locate each read's dictating write (data uniqueness
	// and phantom-freedom are guaranteed by preprocess).
	local := make(map[opRef]int32, n)
	for i, nd := range vw.nodes {
		g.dict[i] = -1
		local[opRef{nd.Client, nd.Index}] = int32(i)
		if nd.Op.Write {
			if _, ok := g.wvar[nd.Op.Var]; !ok {
				g.vars = append(g.vars, nd.Op.Var)
			}
			g.wvar[nd.Op.Var] = append(g.wvar[nd.Op.Var], int32(i))
		}
	}
	sort.Slice(g.vars, func(i, j int) bool { return g.vars[i] < g.vars[j] })
	// Base edges: program order…
	for _, chain := range vw.chains {
		for k := 1; k < len(chain); k++ {
			g.addEdge(chain[k-1], chain[k], whyPO, -1)
		}
	}
	// …and read-from.
	for i, nd := range vw.nodes {
		if nd.Op.Write || nd.Op.Val == 0 {
			continue
		}
		w := cl.writerOf[[2]uint64{nd.Op.Var, nd.Op.Val}]
		if wl, ok := local[w]; ok {
			g.dict[i] = wl
			g.addEdge(wl, int32(i), whyReadFrom, -1)
		}
		// A dictating write outside the view cannot happen: PRAM views hold
		// all writes, per-variable views hold all ops on the variable.
	}
	return g
}

func (g *graph) addEdge(from, to int32, why edgeWhy, via int32) bool {
	if from == to {
		return false
	}
	key := int64(from)<<32 | int64(uint32(to))
	if _, ok := g.seen[key]; ok {
		return false
	}
	g.seen[key] = struct{}{}
	g.out[from] = append(g.out[from], edge{to: to, why: why, via: via})
	return true
}

// run iterates topo-sort + inference to fixpoint. Returns nil if the view
// certifies, else a minimal counterexample.
func (g *graph) run(opts checkOpts) *Violation {
	for {
		if !g.topo() {
			return g.cycleViolation()
		}
		if opts.noInference {
			return nil
		}
		added, v := g.infer()
		if v != nil {
			return v
		}
		if !added {
			return nil
		}
	}
}

// topo runs Kahn's algorithm; false means a cycle remains (indeg then marks
// the residual subgraph: nodes with indeg > 0 after the peel).
func (g *graph) topo() bool {
	n := len(g.vw.nodes)
	for i := range g.indeg {
		g.indeg[i] = 0
	}
	for _, es := range g.out {
		for _, e := range es {
			g.indeg[e.to]++
		}
	}
	g.order = g.order[:0]
	for i := 0; i < n; i++ {
		if g.indeg[i] == 0 {
			g.order = append(g.order, int32(i))
		}
	}
	for k := 0; k < len(g.order); k++ {
		for _, e := range g.out[g.order[k]] {
			if g.indeg[e.to]--; g.indeg[e.to] == 0 {
				g.order = append(g.order, e.to)
			}
		}
	}
	return len(g.order) == n
}

// infer applies the two closure rules using the topo order, in groups of
// variables whose writes share one bitset layout, so the reachability DP
// buffer stays nodes × ≤64 words however large the trace is. Returns
// whether any edge was added, or an initial-value violation.
func (g *graph) infer() (bool, *Violation) {
	const groupBits = 4096
	n := len(g.vw.nodes)
	added := false
	for lo := 0; lo < len(g.vars); {
		// Grow the group while it fits (always at least one variable).
		hi, bits := lo, 0
		for hi < len(g.vars) && (hi == lo || bits+len(g.wvar[g.vars[hi]]) <= groupBits) {
			bits += len(g.wvar[g.vars[hi]])
			hi++
		}
		words := (bits + 63) / 64
		if need := n * words; cap(g.reach) < need {
			g.reach = make([]uint64, need)
		} else {
			g.reach = g.reach[:need]
			for i := range g.reach {
				g.reach[i] = 0
			}
		}
		// Bit assignment for this group's writes.
		bitOf := make(map[int32]int, bits)
		writeOfBit := make([]int32, 0, bits)
		groupHas := make(map[uint64]bool, hi-lo)
		for _, x := range g.vars[lo:hi] {
			groupHas[x] = true
			for _, w := range g.wvar[x] {
				bitOf[w] = len(writeOfBit)
				writeOfBit = append(writeOfBit, w)
			}
		}
		// Forward DP: after the loop, reach[m] = {group writes w : w ⇒ m}.
		for _, nd := range g.order {
			row := g.reach[int(nd)*words : int(nd)*words+words]
			b, isW := bitOf[nd]
			for _, e := range g.out[nd] {
				dst := g.reach[int(e.to)*words : int(e.to)*words+words]
				for i, w := range row {
					dst[i] |= w
				}
				if isW {
					dst[b/64] |= 1 << (b % 64)
				}
			}
		}
		// Rules, for every read on a group variable.
		for r := 0; r < n; r++ {
			nd := g.vw.nodes[r]
			if nd.Op.Write || !groupHas[nd.Op.Var] {
				continue
			}
			x := nd.Op.Var
			w := g.dict[r]
			rowR := g.reach[r*words : r*words+words]
			if w < 0 {
				// Initial-value read: any same-variable write reaching it
				// refutes the trace.
				for _, wl := range g.wvar[x] {
					b := bitOf[wl]
					if rowR[b/64]&(1<<(b%64)) != 0 {
						return added, g.initialReadViolation(wl, int32(r))
					}
				}
				continue
			}
			// Rule 1: a same-variable write w' visible before r must
			// precede the dictating write w (else r would have returned
			// w'). Skip writes already known to precede w.
			rowW := g.reach[int(w)*words : int(w)*words+words]
			for _, wl := range g.wvar[x] {
				if wl == w {
					continue
				}
				b := bitOf[wl]
				if rowR[b/64]&(1<<(b%64)) == 0 || rowW[b/64]&(1<<(b%64)) != 0 {
					continue
				}
				if g.addEdge(wl, w, whyRule1, int32(r)) {
					added = true
				}
			}
			// Rule 2: r precedes every same-variable write that the
			// dictating write precedes (else that write would shadow w).
			wb := bitOf[w]
			for _, w2 := range g.wvar[x] {
				if w2 == w {
					continue
				}
				row2 := g.reach[int(w2)*words : int(w2)*words+words]
				if row2[wb/64]&(1<<(wb%64)) == 0 {
					continue
				}
				if g.addEdge(int32(r), w2, whyRule2, int32(r)) {
					added = true
				}
			}
		}
		lo = hi
	}
	return added, nil
}

// --- counterexample extraction ------------------------------------------

func (g *graph) whyString(e edge) string {
	switch e.why {
	case whyPO:
		return "program order"
	case whyReadFrom:
		return "read-from: the read returned this write's value"
	case whyRule1:
		via := g.vw.nodes[e.via]
		return fmt.Sprintf("inferred: already visible when client %d's read op %d returned the other write's value", via.Client, via.Index)
	case whyRule2:
		return "inferred: the read's dictating write precedes this write, so the read must too"
	}
	return "?"
}

// edgeBetween returns the recorded edge from a to b (it exists by
// construction when called).
func (g *graph) edgeBetween(a, b int32) edge {
	for _, e := range g.out[a] {
		if e.to == b {
			return e
		}
	}
	return edge{to: b, via: -1}
}

// bfsPath returns the shortest node path from src to dst over the current
// edges (nil if unreachable). restrict, when non-nil, confines the search
// to nodes with restrict[node] true.
func (g *graph) bfsPath(src, dst int32, restrict []bool) []int32 {
	n := len(g.vw.nodes)
	prev := make([]int32, n)
	for i := range prev {
		prev[i] = -2
	}
	prev[src] = -1
	queue := []int32{src}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		for _, e := range g.out[nd] {
			if prev[e.to] != -2 || (restrict != nil && !restrict[e.to]) {
				continue
			}
			prev[e.to] = nd
			if e.to == dst {
				var path []int32
				for at := dst; at != -1; at = prev[at] {
					path = append(path, at)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, e.to)
		}
	}
	return nil
}

// cycleViolation extracts a shortest cycle from the residual subgraph left
// by a failed topo (nodes with indeg > 0). Minimality: BFS from each
// residual start finds the shortest cycle through it; the best over capped
// starts is reported.
func (g *graph) cycleViolation() *Violation {
	residual := make([]bool, len(g.vw.nodes))
	var starts []int32
	for i, d := range g.indeg {
		if d > 0 {
			residual[i] = true
			starts = append(starts, int32(i))
		}
	}
	const maxStarts = 128
	if len(starts) > maxStarts {
		starts = starts[:maxStarts]
	}
	var best []int32
	for _, s := range starts {
		// Shortest s → s cycle: BFS from each successor of s back to s.
		for _, e := range g.out[s] {
			if !residual[e.to] {
				continue
			}
			var path []int32
			if e.to == s {
				path = []int32{s}
			} else if p := g.bfsPath(e.to, s, residual); p != nil {
				path = append([]int32{s}, p[:len(p)-1]...)
			}
			if path != nil && (best == nil || len(path) < len(best)) {
				best = path
			}
		}
	}
	v := &Violation{Kind: KindCycle}
	if best == nil {
		v.Message = "constraint graph is cyclic (no legal serialization exists)"
		return v
	}
	for i, nd := range best {
		v.Ops = append(v.Ops, g.vw.nodes[nd])
		v.Why = append(v.Why, g.whyString(g.edgeBetween(nd, best[(i+1)%len(best)])))
	}
	v.Message = fmt.Sprintf("ordering cycle over %d operations: each must precede the next, and the last must precede the first", len(best))
	return v
}

// initialReadViolation reports a read of the initial value that a
// same-variable write provably preceded, with the shortest forcing chain
// from the write to the read.
func (g *graph) initialReadViolation(w, r int32) *Violation {
	v := &Violation{Kind: KindStaleInitialRead}
	path := g.bfsPath(w, r, nil)
	if path == nil {
		path = []int32{w, r}
	}
	for i, nd := range path {
		v.Ops = append(v.Ops, g.vw.nodes[nd])
		if i+1 < len(path) {
			v.Why = append(v.Why, g.whyString(g.edgeBetween(nd, path[i+1])))
		}
	}
	wn, rn := g.vw.nodes[w], g.vw.nodes[r]
	v.Message = fmt.Sprintf("read of variable %d returned the initial 0, but write(var=%d, val=%d) was already visible (lost write / read-your-writes violation)",
		rn.Op.Var, wn.Op.Var, wn.Op.Val)
	return v
}
