package protocol

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"detshmem/internal/mpc"
)

// The pinned-digest differential test: nothing a caller can observe of a
// batch — read values, any Metrics field, the timestamps left on the copies —
// may move when the batch path is rewritten. Every cell of
//
//	mapper matrix × fault scenario × resolver
//
// runs the same seeded batch script and folds what it observed into one
// FNV-1a digest; one more cell runs a script whose batches are all large
// enough to play Copies phases. The constants in digestGolden were generated
// at commit 7e384ba, before the batch path became staged passes over packed
// rows, and regenerated three times: when small batches began to play fewer
// than Copies phases (phaseCount) — the q+1-phases cell was generated before
// that change and reproduced after it — when decide began to cancel a
// request's losing bids in the round its quorum completes, which left the
// single-copy cells unchanged, and when the phases began to overlap, which
// moved only cells whose script plays a multi-phase batch (see
// digestGolden). The table and the computed resolver must
// both reproduce the one constant of their cell. The keys still say policy=0:
// the matrix had a copy-policy axis until the fixed-majority ablation
// (policy=1) was deleted.

// digestScenarios are the fault scenarios of the matrix.
var digestScenarios = []string{"healthy", "static", "flip", "repairing"}

// digestMaxBatch caps the script's batches, which otherwise scale with N
// (37 449 modules on the q=8 scheme).
const digestMaxBatch = 768

// digester folds observations into an FNV-1a hash.
type digester struct{ h hash.Hash64 }

func (d digester) u64(xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		d.h.Write(b[:])
	}
}

func (d digester) ints(xs []int) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.u64(uint64(x))
	}
}

// batch folds one AccessInto outcome: the error's class (not its text), the
// values and every Metrics field.
func (d digester) batch(res *Result, err error) {
	class := uint64(0)
	switch {
	case err == nil:
	case errors.Is(err, ErrQuorumUnreachable):
		class = 2
	case errors.Is(err, ErrIncomplete):
		class = 1
	default:
		class = 3
	}
	d.u64(class, uint64(len(res.Values)))
	d.u64(res.Values...)
	m := &res.Metrics
	d.u64(uint64(m.Phases), uint64(m.MaxIterations), uint64(m.TotalRounds), uint64(m.CopyAccesses),
		uint64(m.GrantedBids), m.InterconnectCost, uint64(m.IssuedBids), uint64(m.RetriedBids),
		uint64(m.RetryRounds), uint64(m.RepairedCopies), uint64(m.RepairSalvaged),
		uint64(m.RepairRounds), uint64(m.RepairCertified))
	d.ints(m.PhaseIterations)
	d.u64(uint64(len(m.LiveTrace)))
	for _, live := range m.LiveTrace {
		d.ints(live)
	}
	d.ints(m.Unfinished)
	d.ints(m.Stranded)
}

// flipMachine applies a scripted fault-set mutation right before chosen
// rounds, counted over every machine of the cell, so faults land mid-phase
// at the same protocol step whatever the geometry.
type flipMachine struct {
	*mpc.Failing
	round  *int
	script map[int]func(*mpc.FaultSet)
}

func (m *flipMachine) Round(bids []int64, grant []bool) int {
	*m.round++
	if f := m.script[*m.round]; f != nil {
		f(m.FaultSet)
	}
	return m.Failing.Round(bids, grant)
}

// digestBatch draws size distinct variables with ~40 % writes.
func digestBatch(rng *rand.Rand, numVars uint64, size int, touched map[uint64]bool) []Request {
	reqs := make([]Request, 0, size)
	seen := make(map[uint64]bool, size)
	for len(reqs) < size {
		v := rng.Uint64() % numVars
		if seen[v] {
			continue
		}
		seen[v] = true
		touched[v] = true
		rq := Request{Var: v}
		if rng.Intn(100) < 40 {
			rq.Op, rq.Value = Write, rng.Uint64()|1
		}
		reqs = append(reqs, rq)
	}
	return reqs
}

// faultScript sets one of digestScenarios up on cfg for a script of batches
// and returns the hook to run before batch i. The faults aim at the modules
// of variables the batches really touch: static fails every copy of
// batches[1][0] (its variable is stranded), one copy of batches[1][1] and one
// random module before the first batch; flip fails and recovers modules and a
// range of N/4 right before chosen rounds, so faults land mid-phase;
// repairing fails that range before batch 2 and re-arms it for repair before
// batch 4. An index past a batch's end wraps around.
func faultScript(m Mapper, scenario string, batches [][]Request, rng *rand.Rand, cfg *Config) func(i int) {
	n := int(m.NumModules())
	copyMod := func(b, i, c int) uint64 {
		mod, _ := m.CopyAddr(batches[b][i%len(batches[b])].Var, c)
		return mod
	}
	gamma := make([]uint64, m.Copies()) // the modules of the static victim
	for c := range gamma {
		gamma[c] = copyMod(1, 0, c)
	}
	fs := mpc.NewFaultSet()
	round := 0
	var script map[int]func(*mpc.FaultSet)
	if scenario != "healthy" {
		cfg.NewMachine = func(mcfg mpc.Config) (Machine, error) {
			f, err := mpc.NewFailingShared(mcfg, fs)
			if err != nil || script == nil {
				return f, err
			}
			return &flipMachine{Failing: f, round: &round, script: script}, nil
		}
	}
	lo, hi := uint64(n/2), uint64(n/2+max(1, n/4))
	switch scenario {
	case "static":
		for _, mod := range gamma {
			fs.Fail(mod)
		}
		fs.Fail(copyMod(1, 1, 0))
		fs.Fail(uint64(rng.Intn(n)))
	case "flip":
		a, b := copyMod(0, 0, 0), copyMod(1, 2, m.Copies()-1)
		script = map[int]func(*mpc.FaultSet){
			1:  func(fs *mpc.FaultSet) { fs.Fail(a) },
			3:  func(fs *mpc.FaultSet) { fs.Fail(b); fs.FailRange(lo, hi) },
			6:  func(fs *mpc.FaultSet) { readmitUnrebuilt(fs, a) },
			9:  func(fs *mpc.FaultSet) { fs.RecoverPendingRange(lo, hi) },
			14: func(fs *mpc.FaultSet) { fs.Fail(gamma[0]); readmitUnrebuilt(fs, b) },
			23: func(fs *mpc.FaultSet) { readmitUnrebuilt(fs, gamma[0]) },
		}
	}
	return func(i int) {
		if scenario == "repairing" {
			// Healthy, then a contiguous range fails under writes, then it
			// comes back stale and is rebuilt under traffic.
			switch i {
			case 2:
				fs.FailRange(lo, hi)
			case 4:
				fs.RecoverPendingRange(lo, hi)
			}
		}
	}
}

// readmitUnrebuilt re-admits module m and certifies it at once, as a repair
// sweep that found nothing to rebuild would. It keeps the flip script's
// pinned digests; every other test re-admits through RecoverPending and a
// sweep that runs.
func readmitUnrebuilt(fs *mpc.FaultSet, m uint64) {
	fs.RecoverPending(m)
	fs.Certify(m, fs.Snapshot().RepairGen(m))
}

// digestSizes is the script every cell of the matrix runs: a full batch
// first, then sizes that shrink and grow again, all on the one N-processor
// machine the System was built with, whose repair waves carry N/Copies
// variables.
func digestSizes(n int) []int { return []int{n, 5, n / 3, 17, 40, 1, n / 2} }

// fullPhaseSizes is the script of the one cell whose batches all play
// Copies phases: every size exceeds q·⌊N/(q+1)³⌋ (40 at q=4 n=3).
func fullPhaseSizes(n int) []int { return []int{n, 41, n / 3, 97, 200, 64, n / 2} }

// digestCell runs one cell's script and returns its digest.
func digestCell(t *testing.T, m Mapper, scenario string, table *CompiledResolver, sizes []int) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(20260930))
	n, nv := int(m.NumModules()), m.NumVars()

	// The script's batches are drawn up front, so the fault scripts can aim
	// at the modules of variables the batches really touch.
	touched := map[uint64]bool{}
	batches := make([][]Request, len(sizes))
	for i, size := range sizes {
		batches[i] = digestBatch(rng, nv, max(1, min(size, n, digestMaxBatch)), touched)
	}

	// Untouched variables hold nothing to rebuild; sweeping only the touched
	// ones keeps the q=8 cells (266 304 variables) quick.
	cfg := Config{TraceLive: true, Owns: func(v uint64) bool { return touched[v] }}
	if table != nil {
		cfg.Resolver = table
	} else {
		cfg.Strategy = ResolverComputed
	}
	before := faultScript(m, scenario, batches, rng, &cfg)
	sys, err := NewGenericSystem(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.maxIter = 512

	d := digester{h: fnv.New64a()}
	var res Result
	for i, reqs := range batches {
		before(i)
		err := sys.AccessInto(reqs, &res)
		if err != nil && !errors.Is(err, ErrIncomplete) {
			t.Fatalf("batch %d: %v", i, err)
		}
		d.batch(&res, err)
	}
	if scenario == "repairing" || scenario == "flip" {
		steps := 0
		for ; sys.RepairBacklog() > 0 && steps < 10_000 && sys.RepairStep(); steps++ {
		}
		d.u64(uint64(steps), uint64(sys.RepairBacklog()))
		err := sys.AccessInto(batches[0], &res)
		if err != nil && !errors.Is(err, ErrIncomplete) {
			t.Fatal(err)
		}
		d.batch(&res, err)
	}
	// The copies' timestamps, in variable order.
	for v := uint64(0); v < nv; v++ {
		if touched[v] {
			d.u64(v)
			d.u64(sys.CopyState(v)...)
		}
	}
	return d.h.Sum64()
}

func TestBatchDigestsPinned(t *testing.T) {
	check := func(key string, m Mapper, scenario string, table *CompiledResolver, sizes []int) {
		want, pinned := digestGolden[key]
		resolvers := []*CompiledResolver{table, nil}
		if table == nil { // a baseline: it has no table and resolves live
			resolvers = resolvers[1:]
		}
		for _, resolver := range resolvers {
			got := digestCell(t, m, scenario, resolver, sizes)
			if !pinned || got != want {
				t.Errorf("%q: 0x%016x, // compiled=%v; pinned 0x%016x", key, got, resolver != nil, want)
			}
		}
	}
	mappers := mapperFuzzSetup(t)
	for mi, m := range mappers {
		table := tableOrNil(t, m)
		for _, scenario := range digestScenarios {
			check(fmt.Sprintf("%d-%s/policy=0/%s", mi, m.Name(), scenario), m, scenario, table, digestSizes(int(m.NumModules())))
		}
	}
	// The q+1-phase cell: q=4 n=3 under the flip scenario, every batch above
	// q·⌊N/(q+1)³⌋ requests.
	m := mappers[1]
	check("1-pp93/policy=0/flip/q+1-phases", m, "flip", compileTable(t, m), fullPhaseSizes(int(m.NumModules())))
}
