package consistency

import (
	"math/rand"
	"testing"
)

func w(v, val uint64) Op       { return Op{Write: true, Var: v, Val: val} }
func r(v, val uint64) Op       { return Op{Var: v, Val: val} }
func failedW(v, val uint64) Op { return Op{Write: true, Var: v, Val: val, Failed: true} }
func failedR(v uint64) Op      { return Op{Var: v, Failed: true} }

func mustCertify(t *testing.T, tr Trace, mode Mode) *Report {
	t.Helper()
	rep := Check(tr, mode)
	if !rep.OK {
		t.Fatalf("%s: expected certification, got violation: %+v", mode, rep.Violations[0])
	}
	return rep
}

func mustViolate(t *testing.T, tr Trace, mode Mode, kind string) *Violation {
	t.Helper()
	rep := Check(tr, mode)
	if rep.OK {
		t.Fatalf("%s: expected a %s violation, trace certified", mode, kind)
	}
	v := rep.First()
	if v.Kind != kind {
		t.Fatalf("%s: violation kind = %s, want %s (message: %s)", mode, v.Kind, kind, v.Message)
	}
	return v
}

func TestCertifiesSimpleHistories(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
	}{
		{"empty", Trace{}},
		{"single writer single reader", Trace{
			{w(1, 10), w(1, 20)},
			{r(1, 10), r(1, 20)},
		}},
		{"initial reads", Trace{
			{r(1, 0), r(2, 0)},
			{w(3, 5)},
		}},
		{"read your writes", Trace{
			{w(1, 10), r(1, 10), w(1, 20), r(1, 20)},
		}},
		{"two observers same order", Trace{
			{w(7, 1), w(7, 2)},
			{r(7, 0), r(7, 1), r(7, 2)},
			{r(7, 1), r(7, 2), r(7, 2)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustCertify(t, tc.tr, ModePRAM)
			mustCertify(t, tc.tr, ModePerVariable)
		})
	}
}

// TestCertifiesNonGreedyHistory pins the case that defeats lazy frontier
// simulation (the reason this checker builds the full constraint graph):
// the only legal serialization for the reader orders B's write of x BEFORE
// A's, i.e. b1(x,2) b2(z,3) a1(x,1) r(x,1) r(z,3) r(x,1). A greedy
// replayer that applies A's write first sees the final r(x,1) contradicted
// and wrongly rejects; the constraint closure certifies.
func TestCertifiesNonGreedyHistory(t *testing.T) {
	tr := Trace{
		{w(100, 1)},            // A: a1(x,1)
		{w(100, 2), w(200, 3)}, // B: b1(x,2), b2(z,3)
		{r(100, 1), r(200, 3), r(100, 1)},
	}
	mustCertify(t, tr, ModePRAM)
	mustCertify(t, tr, ModePerVariable)
}

func TestStaleReadIsCycle(t *testing.T) {
	// One observer sees the writer's two values in inverted order.
	tr := Trace{
		{w(1, 10), w(1, 20)},
		{r(1, 20), r(1, 10)},
	}
	for _, mode := range []Mode{ModePRAM, ModePerVariable} {
		v := mustViolate(t, tr, mode, KindCycle)
		if len(v.Ops) != 2 {
			t.Fatalf("%s: counterexample cycle has %d ops, want the minimal 2: %+v", mode, len(v.Ops), v.Ops)
		}
		if len(v.Why) != len(v.Ops) {
			t.Fatalf("%s: cycle has %d ops but %d edge justifications", mode, len(v.Ops), len(v.Why))
		}
	}
}

func TestLostWriteIsStaleInitialRead(t *testing.T) {
	// Read-your-writes violation: the client's own write is lost.
	tr := Trace{{w(1, 10), r(1, 0)}}
	for _, mode := range []Mode{ModePRAM, ModePerVariable} {
		v := mustViolate(t, tr, mode, KindStaleInitialRead)
		if len(v.Ops) != 2 {
			t.Fatalf("%s: counterexample has %d ops, want 2 (write, read): %+v", mode, len(v.Ops), v.Ops)
		}
	}
	// Same anomaly observed transitively through another client's read.
	tr = Trace{
		{w(1, 10), w(2, 20)},
		{r(2, 20), r(1, 0)},
	}
	mustViolate(t, tr, ModePRAM, KindStaleInitialRead)
}

func TestProgramOrderInversionSplitsModes(t *testing.T) {
	// B observes A's second write but not its first: a PRAM (FIFO)
	// violation. Per-variable consistency is indifferent — x and y each
	// have a legal independent order — which is exactly the documented gap
	// between the frontend's total-order contract and the sharded
	// service's per-variable contract.
	tr := Trace{
		{w(1, 10), w(2, 20)},
		{r(2, 20), r(1, 0)},
	}
	mustViolate(t, tr, ModePRAM, KindStaleInitialRead)
	mustCertify(t, tr, ModePerVariable)

	// The two-value variant, same shape with no initial values involved.
	tr = Trace{
		{w(1, 11), w(1, 10), w(2, 20)},
		{r(2, 20), r(1, 11)},
	}
	mustViolate(t, tr, ModePRAM, KindCycle)
	mustCertify(t, tr, ModePerVariable)
}

func TestPhantomRead(t *testing.T) {
	tr := Trace{
		{w(1, 10)},
		{r(1, 7)}, // nobody ever wrote 7
	}
	for _, mode := range []Mode{ModePRAM, ModePerVariable} {
		mustViolate(t, tr, mode, KindPhantomRead)
	}
}

func TestForkJoinOscillation(t *testing.T) {
	// Two concurrent writers; a joiner sees the value flip back — no
	// serialization of the two writes explains 1, 2, 1.
	tr := Trace{
		{w(1, 10)},
		{w(1, 20)},
		{r(1, 10), r(1, 20), r(1, 10)},
	}
	for _, mode := range []Mode{ModePRAM, ModePerVariable} {
		v := mustViolate(t, tr, mode, KindCycle)
		if len(v.Ops) != 2 {
			t.Fatalf("%s: oscillation counterexample has %d ops, want minimal 2: %+v", mode, len(v.Ops), v.Ops)
		}
	}
}

func TestDataUniquenessPreconditions(t *testing.T) {
	dup := Trace{
		{w(1, 10)},
		{w(1, 10)},
	}
	v := mustViolate(t, dup, ModePRAM, KindDuplicateWrite)
	if len(v.Ops) != 2 {
		t.Fatalf("duplicate-write counterexample should name both writes, got %+v", v.Ops)
	}
	zero := Trace{{w(1, 0)}}
	mustViolate(t, zero, ModePerVariable, KindZeroWrite)
}

func TestFailedOpsExcluded(t *testing.T) {
	// Failed reads and unread failed writes impose nothing.
	tr := Trace{
		{w(1, 10), failedW(1, 11), failedR(1)},
		{r(1, 10)},
	}
	for _, mode := range []Mode{ModePRAM, ModePerVariable} {
		rep := mustCertify(t, tr, mode)
		if rep.DroppedFailed != 2 {
			t.Fatalf("%s: DroppedFailed = %d, want 2", mode, rep.DroppedFailed)
		}
		if rep.Resurrected != 0 {
			t.Fatalf("%s: Resurrected = %d, want 0", mode, rep.Resurrected)
		}
	}
	// A failed write that never landed must not trigger a lost-write
	// verdict on a subsequent initial read.
	tr = Trace{
		{failedW(1, 11)},
		{r(1, 0)},
	}
	mustCertify(t, tr, ModePerVariable)
}

func TestFailedWriteResurrection(t *testing.T) {
	// A stranded write whose value is later read did land: it is
	// reinstated at its program-order position…
	tr := Trace{
		{failedW(1, 11)},
		{r(1, 11)},
	}
	for _, mode := range []Mode{ModePRAM, ModePerVariable} {
		rep := mustCertify(t, tr, mode)
		if rep.Resurrected != 1 {
			t.Fatalf("%s: Resurrected = %d, want 1", mode, rep.Resurrected)
		}
	}
	// …and then carries full obligations: the writer's own later initial
	// read contradicts it.
	tr = Trace{
		{failedW(1, 11), r(1, 0)},
		{r(1, 11)},
	}
	mustViolate(t, tr, ModePerVariable, KindStaleInitialRead)
}

func TestModesFor(t *testing.T) {
	if got := ModesFor(ContractTotalOrder); len(got) != 2 {
		t.Fatalf("total-order contract must demand both modes, got %v", got)
	}
	if got := ModesFor(ContractPerVariable); len(got) != 1 || got[0] != ModePerVariable {
		t.Fatalf("per-variable contract must demand only per-variable, got %v", got)
	}
}

func TestRandomSCHistoriesCertify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for i := 0; i < iters; i++ {
		clients := 2 + rng.Intn(4)
		ops := 20 + rng.Intn(120)
		vars := 1 + rng.Intn(12)
		tr := genSCTrace(rng, clients, ops, vars)
		for _, mode := range []Mode{ModePRAM, ModePerVariable} {
			if rep := Check(tr, mode); !rep.OK {
				t.Fatalf("iter %d (%d clients × %d ops, %d vars): SC history rejected under %s: %+v",
					i, clients, ops, vars, mode, rep.Violations[0])
			}
		}
	}
}

func TestRandomPRAMHistoriesCertifyUnderPRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		tr := genPRAMTrace(rng, 2+rng.Intn(2), 1+rng.Intn(3), 15+rng.Intn(60), 1+rng.Intn(8))
		if rep := Check(tr, ModePRAM); !rep.OK {
			t.Fatalf("iter %d: PRAM-consistent history rejected: %+v", i, rep.Violations[0])
		}
	}
}

func TestRecorderMintsUniqueValues(t *testing.T) {
	rec := NewRecorder()
	rr := rec.Run("cell", ContractTotalOrder, 3)
	seen := map[uint64]bool{}
	for c := 0; c < 3; c++ {
		cr := rr.Client(c)
		for i := 0; i < 100; i++ {
			val := cr.WriteValue()
			if val == 0 || seen[val] {
				t.Fatalf("client %d minted duplicate or zero value %d", c, val)
			}
			seen[val] = true
			cr.Record(true, uint64(i%5), val, false)
			cr.Record(false, uint64(i%5), val, false)
		}
	}
	ts := rec.TraceSet()
	if len(ts.Runs) != 1 || len(ts.Runs[0].Clients) != 3 {
		t.Fatalf("trace set shape: %d runs", len(ts.Runs))
	}
	if got := ts.Runs[0].Clients.Ops(); got != 600 {
		t.Fatalf("recorded ops = %d, want 600", got)
	}
}

func TestReportOpsCounting(t *testing.T) {
	tr := Trace{
		{w(1, 10), failedR(2)},
		{r(1, 10)},
	}
	rep := Check(tr, ModePerVariable)
	if rep.OpsChecked != 2 || rep.DroppedFailed != 1 {
		t.Fatalf("OpsChecked = %d DroppedFailed = %d, want 2 and 1", rep.OpsChecked, rep.DroppedFailed)
	}
}
