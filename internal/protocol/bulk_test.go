package protocol

import (
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/obs"
)

// TestAppendCopyAddrsMatchesCopyAddr is the mapper-matrix equivalence pin
// for the bulk contract: for every scheme in the fuzz matrix (core q ∈
// {2, 4, 8}, MV, single-copy, UW, affine) and a spread of batch shapes —
// including lengths that straddle the internal block boundaries — the
// batched resolution must equal the per-op sweep, grow append-style from a
// non-empty prefix, and handle partial copy counts.
func TestAppendCopyAddrsMatchesCopyAddr(t *testing.T) {
	for _, m := range mapperFuzzSetup(t) {
		t.Run(m.Name(), func(t *testing.T) {
			M, c := m.NumVars(), m.Copies()
			for _, nVars := range []int{0, 1, 63, 64, 65, 200} {
				vars := make([]uint64, nVars)
				for i := range vars {
					vars[i] = (uint64(i)*2654435761 + 17) % M
				}
				for _, copies := range []int{c, m.ReadQuorum(), 1} {
					mods := []uint64{^uint64(0)} // sentinel prefix
					addrs := []uint64{42}
					mods, addrs = AppendCopyAddrs(m, mods, addrs, vars, copies)
					if mods[0] != ^uint64(0) || addrs[0] != 42 {
						t.Fatal("bulk path clobbered the dst prefix")
					}
					if len(mods) != 1+nVars*copies || len(addrs) != 1+nVars*copies {
						t.Fatalf("bulk appended %d/%d entries, want %d", len(mods)-1, len(addrs)-1, nVars*copies)
					}
					for i, v := range vars {
						for k := 0; k < copies; k++ {
							wm, wa := m.CopyAddr(v, k)
							at := 1 + i*copies + k
							if mods[at] != wm || addrs[at] != wa {
								t.Fatalf("vars=%d copies=%d: copy %d of %d = (%d,%d), per-op (%d,%d)",
									nVars, copies, k, v, mods[at], addrs[at], wm, wa)
							}
						}
					}
				}
			}
		})
	}
}

// TestAppendCopyAddrsZeroAlloc pins every native bulk implementation (core,
// compiled table, affine, UW with its in-cap replication) at zero heap
// allocations once the destination slices have capacity.
func TestAppendCopyAddrsZeroAlloc(t *testing.T) {
	for _, m := range mapperFuzzSetup(t) {
		if _, ok := m.(BulkMapper); !ok {
			continue
		}
		t.Run(m.Name(), func(t *testing.T) {
			vars := make([]uint64, 200)
			for i := range vars {
				vars[i] = (uint64(i) * 2654435761) % m.NumVars()
			}
			c := m.Copies()
			mods := make([]uint64, 0, len(vars)*c)
			addrs := make([]uint64, 0, len(vars)*c)
			if n := testing.AllocsPerRun(20, func() {
				mods, addrs = AppendCopyAddrs(m, mods[:0], addrs[:0], vars, c)
			}); n != 0 {
				t.Errorf("bulk path allocates %v per call, want 0", n)
			}
		})
	}
}

// strategySystem builds a q=2 core system under the given strategy.
func strategySystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(s, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestResolverStrategyEquivalence runs the same workload through the table
// and through the computed kernels (chosen by default and by strategy) and
// checks they observe identical values: the resolution path must be invisible
// to the memory semantics.
func TestResolverStrategyEquivalence(t *testing.T) {
	auto := strategySystem(t, Config{})
	compiled := strategySystem(t, Config{Resolver: compileTable(t, auto.Mapper)})
	computed := strategySystem(t, Config{Strategy: ResolverComputed})
	systems := []*System{auto, compiled, computed}

	if compiled.resolver == nil {
		t.Fatal("a configured table was not attached")
	}
	if auto.resolver != nil || computed.resolver != nil {
		t.Fatal("a system without a table attached a resolver")
	}

	M := auto.Mapper.NumVars()
	n := int(auto.Mapper.NumModules())
	vars := make([]uint64, 0, n)
	vals := make([]uint64, 0, n)
	for b := 0; b < 8; b++ {
		vars, vals = vars[:0], vals[:0]
		seen := map[uint64]bool{}
		for i := 0; i < n; i++ {
			v := (uint64(i)*2654435761 + uint64(b)*12289) % M
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
				vals = append(vals, uint64(b)<<32|uint64(i))
			}
		}
		for _, sys := range systems {
			if _, err := sys.WriteBatch(vars, vals); err != nil {
				t.Fatal(err)
			}
		}
		for si, sys := range systems {
			got, _, err := sys.ReadBatch(vars)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vars {
				if got[i] != vals[i] {
					t.Fatalf("batch %d system %d var %d: read %d, wrote %d", b, si, vars[i], got[i], vals[i])
				}
			}
		}
	}
}

// TestComputedStrategyUnwrapsCompiledMapper checks a System whose Mapper is
// a compiled table but whose strategy forbids it resolves through the
// underlying organization, not the table.
func TestComputedStrategyUnwrapsCompiledMapper(t *testing.T) {
	mv, err := baseline.NewMV(64, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileMapper(mv, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewGenericSystem(r, Config{Strategy: ResolverComputed})
	if err != nil {
		t.Fatal(err)
	}
	if sys.resolver != nil || sys.bulkSrc != Mapper(mv) {
		t.Fatal("computed strategy did not unwrap the compiled mapper")
	}
	if _, err := sys.WriteBatch([]uint64{1, 2, 3}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestResolverStrategyValidation pins the configuration error surface.
func TestResolverStrategyValidation(t *testing.T) {
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	m := NewCoreMapper(s, idx)
	r, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenericSystem(m, Config{Strategy: ResolverComputed, Resolver: r}); err == nil {
		t.Error("computed strategy accepted an attached resolver")
	}
	if _, err := NewGenericSystem(m, Config{Strategy: ResolverStrategy(99)}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestResolverStrategyStrings pins the labels the benchmarks print.
func TestResolverStrategyStrings(t *testing.T) {
	if ResolverAuto.String() != "auto" || ResolverComputed.String() != "computed" {
		t.Errorf("labels %q/%q, want auto/computed", ResolverAuto, ResolverComputed)
	}
}

// TestStrategySteadyStateAllocs pins the computed resolution path — the
// stack-scratch bulk kernels — at zero allocations per batch in steady state,
// with the instrumentation hooks installed. (The subtest keeps the id the
// committed test floor lists.)
func TestStrategySteadyStateAllocs(t *testing.T) {
	t.Run("computed", func(t *testing.T) {
		sys := strategySystem(t, Config{Strategy: ResolverComputed, Recorder: obs.Nop, Observer: obs.NewCollector()})
		m := sys.Mapper
		n := int(m.NumModules())
		reqs := make([]Request, 0, n)
		seen := map[uint64]bool{}
		for i := 0; len(reqs) < n && i < 10*n; i++ {
			v := (uint64(i) * 2654435761) % m.NumVars()
			if seen[v] {
				continue
			}
			seen[v] = true
			op := Read
			if len(reqs)%2 == 0 {
				op = Write
			}
			reqs = append(reqs, Request{Var: v, Op: op, Value: uint64(i)})
		}
		var res Result
		if err := sys.AccessInto(reqs, &res); err != nil { // warm-up
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if err := sys.AccessInto(reqs, &res); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("computed resolution allocates %.2f per batch in steady state, want 0", avg)
		}
	})
}
