package protocol

import (
	"errors"
	"math/rand"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
)

// BenchmarkAccessInto is the protocol layer alone at two shapes of the core
// suite (bench/ has no profile flag, so this is the loop to profile): q=2 n=7
// over the compiled table, 40 % writes, and fresh variables in every batch so
// the table rows and the cells miss the caches as they do under the suite's
// traffic. pram-step issues windows of 4096 distinct variables; small-uniform
// flushes batches of about 100. Each shape runs over the plain MPC and over
// mpc.Failing in fault-repair's three states: healthy, degraded (a
// contiguous quarter of the modules failed) and repairing (that quarter back
// but barred from reads; the per-batch repair step is off, so the state
// holds — BenchmarkRepairSweep times the sweep). Over all four a phase's
// first round is played in place against the machine's claim table
// (firstRound). Each of the four also runs as <name>-generic
// over the same machine wrapped so the protocol does not find it, where every
// round takes the generic path. The suite's traced runs wrap the machine too,
// so these pairs are where the fused rounds' share is measured. A degraded or
// repairing batch may leave requests unserved; that is not an error here.
// Beside ns/req each run reports the model cost, rounds/batch and bids/req
// (Metrics.TotalRounds and IssuedBids): those repeat exactly from run to run,
// so they resolve a change that the timing of one host cannot.
func BenchmarkAccessInto(b *testing.B) {
	base := newSystem(b, 1, 7, Config{})
	table := compileTable(b, base.Mapper)
	n := base.Mapper.NumModules()
	lo, hi := n/2, n/2+n/4
	type machineVariant struct {
		name  string
		state func(*mpc.FaultSet) // nil: the plain MPC
	}
	variants := []machineVariant{
		{"", nil},
		{"-failing-healthy", func(*mpc.FaultSet) {}},
		{"-failing-degraded", func(fs *mpc.FaultSet) { fs.FailRange(lo, hi) }},
		{"-failing-repairing", func(fs *mpc.FaultSet) { fs.FailRange(lo, hi); fs.RecoverPendingRange(lo, hi) }},
	}
	for _, shape := range []struct {
		name string
		size int
	}{{"pram-step", 4096}, {"small-uniform", 100}} {
		// A ring of batches much larger than the caches: 2¹⁹ requests over
		// the 349 504 variables.
		rng := rand.New(rand.NewSource(1))
		nv := base.Mapper.NumVars()
		batches := make([][]Request, (1<<19)/shape.size)
		for i := range batches {
			seen := make(map[uint64]bool, shape.size)
			for len(batches[i]) < shape.size {
				v := rng.Uint64() % nv
				if seen[v] {
					continue
				}
				seen[v] = true
				rq := Request{Var: v}
				if rng.Intn(100) < 40 {
					rq.Op, rq.Value = Write, rng.Uint64()
				}
				batches[i] = append(batches[i], rq)
			}
		}
		for _, variant := range variants {
			for _, wrapped := range []bool{false, true} {
				name := shape.name + variant.name
				if wrapped {
					name += "-generic"
				}
				b.Run(name, func(b *testing.B) {
					var fs *mpc.FaultSet
					if variant.state != nil {
						fs = mpc.NewFaultSet()
						variant.state(fs)
					}
					sys, err := NewGenericSystem(base.Mapper, Config{Resolver: table, NewMachine: benchMachine(fs, wrapped)})
					if err != nil {
						b.Fatal(err)
					}
					sys.repairBudget = -1
					var res Result
					access := func(reqs []Request) {
						if err := sys.AccessInto(reqs, &res); err != nil && !errors.Is(err, ErrIncomplete) {
							b.Fatal(err)
						}
					}
					for _, reqs := range batches { // warm the scratch and fault the store in
						access(reqs)
					}
					b.ReportAllocs()
					b.ResetTimer()
					rounds, bids := 0, 0
					for i := 0; i < b.N; i++ {
						access(batches[i%len(batches)])
						rounds += res.Metrics.TotalRounds
						bids += res.Metrics.IssuedBids
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.size), "ns/req")
					b.ReportMetric(float64(rounds)/float64(b.N), "rounds/batch")
					b.ReportMetric(float64(bids)/float64(b.N*shape.size), "bids/req")
				})
			}
		}
	}
}

// benchMachine builds the plain MPC (fs nil) or a Failing over fs, and wraps
// either so the protocol does not find it when wrapped is set.
func benchMachine(fs *mpc.FaultSet, wrapped bool) func(mpc.Config) (Machine, error) {
	if fs == nil {
		if wrapped {
			return genericMachine
		}
		return nil
	}
	return func(cfg mpc.Config) (Machine, error) {
		f, err := mpc.NewFailingShared(cfg, fs)
		if err != nil || !wrapped {
			return f, err
		}
		return hideFailing{f}, nil
	}
}

// BenchmarkRepairSweep is one whole background sweep at the suite's
// fault-repair scale — q=2 n=7 over the compiled table, a contiguous quarter
// of the 16 383 modules failed under writes and re-admitted for repair —
// reported per rebuilt variable: each of the ~58 % of variables with a copy
// in the range is read from its sources, and the copies the writes left
// stale are rewritten. One iteration is the sweep alone; the fault set's
// mutations and the writes that leave copies stale run off the clock (no
// sweep rides on the writes: the range is failed then, not repairing). It
// runs over the bare Failing and wrapped; the sweep's waves take the generic
// path on both, so the pair differs by the wrapper's calls alone.
func BenchmarkRepairSweep(b *testing.B) {
	base := newSystem(b, 1, 7, Config{})
	table := compileTable(b, base.Mapper)
	m := base.Mapper
	n := m.NumModules()
	lo, hi := n/2, n/2+n/4
	rebuilt := 0
	for v := uint64(0); v < m.NumVars(); v++ {
		for c := 0; c < m.Copies(); c++ {
			if mod, _ := table.CopyAddr(v, c); mod >= lo && mod < hi {
				rebuilt++
				break
			}
		}
	}
	// Every 16th variable is written each iteration while the range is down.
	const block = 4096
	vars := make([]uint64, block)
	vals := make([]uint64, block)
	for i := range vars {
		vars[i] = uint64(i) * 16 % m.NumVars()
	}
	for _, wrapped := range []bool{false, true} {
		name := "failing"
		if wrapped {
			name += "-generic"
		}
		b.Run(name, func(b *testing.B) {
			fs := mpc.NewFaultSet()
			sys, err := NewGenericSystem(m, Config{Resolver: table, NewMachine: benchMachine(fs, wrapped)})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs.FailRange(lo, hi)
				for k := range vals {
					vals[k] = uint64(i*block + k + 1)
				}
				if _, err := sys.WriteBatch(vars, vals); err != nil && !errors.Is(err, ErrIncomplete) {
					b.Fatal(err)
				}
				fs.RecoverPendingRange(lo, hi)
				b.StartTimer()
				for fs.RepairCount() > 0 {
					if !sys.RepairStep() {
						b.Fatalf("repair stalled with backlog %d", fs.RepairCount())
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rebuilt), "ns/var")
		})
	}
}

// BenchmarkCompileMapper is the compiled table's build at the serving scheme,
// q=2 n=7 (349 504 variables, 1 048 512 flat addresses, 4.2 MB): the set-up
// cost of every workload that resolves through the table. At GOMAXPROCS=1 on
// a 2-vCPU shared Xeon (go1.24.0) it reads a median 6.9 ms over 10 runs,
// against 54 ms in alternating runs when every row went through the batched
// kernels (EXPERIMENTS.md, E55). 6.8 % of the rows are seeds resolved
// through the kernels; every other row is derived from the row one torus
// period earlier, and the bijection check reads the whole table once. Its
// allocations are the table, the resolver, the seed scratch, the orbits,
// π_g and the bitmap.
func BenchmarkCompileMapper(b *testing.B) {
	s, err := core.New(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		b.Fatal(err)
	}
	m := NewCoreMapper(s, idx)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileMapper(m, CompileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendCopyAddrs is the computed path at large-zipf's scheme, q=2
// n=9: one AppendCopyAddrs call per block of 64 variables, all q+1 copies,
// reported in ns/var family by family. s1, s2 and s3 draw uniformly from S₁,
// S₂ and S₃, which the torus lift serves from its seed rows; s4 draws from
// S₄, which the kernels resolve; zipf draws 64-op windows of Zipf 1.1 ids, as
// large-zipf does, distinct within a window as a batch's are.
func BenchmarkAppendCopyAddrs(b *testing.B) {
	m := pp93Mapper(b, 1, 9)
	bm := m.(BulkMapper)
	c1, c2, c3, c4 := m.(*coreMapper).idx.(*core.ExplicitIndexer).SetSizes()
	const nBlocks, block = 512, 64
	rng := rand.New(rand.NewSource(1))
	uniform := func(lo, n uint64) [][]uint64 {
		out := make([][]uint64, nBlocks)
		for i := range out {
			for range block {
				out[i] = append(out[i], lo+rng.Uint64()%n)
			}
		}
		return out
	}
	zipf := rand.NewZipf(rng, 1.1, 1, m.NumVars()-1)
	windows := make([][]uint64, nBlocks)
	for i := range windows {
		seen := make(map[uint64]bool, block)
		for range block {
			if v := zipf.Uint64(); !seen[v] {
				seen[v] = true
				windows[i] = append(windows[i], v)
			}
		}
	}
	copies := m.Copies()
	for _, cell := range []struct {
		name   string
		blocks [][]uint64
	}{
		{"s1", uniform(0, c1)},
		{"s2", uniform(c1, c2)},
		{"s3", uniform(c1+c2, c3)},
		{"s4", uniform(c1+c2+c3, c4)},
		{"zipf", windows},
	} {
		b.Run(cell.name, func(b *testing.B) {
			mods := make([]uint64, 0, block*copies)
			addrs := make([]uint64, 0, block*copies)
			vars := 0
			for i := 0; i < b.N; i++ {
				blk := cell.blocks[i%nBlocks]
				mods, addrs = bm.AppendCopyAddrs(mods[:0], addrs[:0], blk, copies)
				vars += len(blk)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(vars), "ns/var")
		})
	}
}
