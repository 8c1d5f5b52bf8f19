package protocol

import (
	"fmt"
	"strings"
	"testing"

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

// TestTorusRowsMatchCopyAddr is the exhaustive pin of the torus path: at
// q=2 and n = 3, 5, 7 and 9, AppendCopyAddrs equals per-op CopyAddr, whose
// kernels stay the independent oracle, on every variable of S₁–S₃ (261 121
// at n=9). Every fifth entry of the vector is an S₄ id, so each block mixes
// derived rows with kernel rows that must be scattered back vars-major.
func TestTorusRowsMatchCopyAddr(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := pp93Mapper(t, 1, n)
			cm := m.(*coreMapper)
			if cm.tor == nil {
				t.Fatal("the explicit indexer's mapper has no torus rows")
			}
			c1, c2, _, c4 := cm.idx.(*core.ExplicitIndexer).SetSizes()
			lifted := c1 + 2*c2
			vars := make([]uint64, 0, lifted+lifted/4+1)
			for v := uint64(0); v < lifted; v++ {
				if len(vars)%5 == 4 {
					vars = append(vars, lifted+uint64(len(vars))*2654435761%c4)
				}
				vars = append(vars, v)
			}
			copiesList := []int{m.Copies(), m.ReadQuorum(), 1}
			if n == 9 {
				copiesList = copiesList[:1]
			}
			for _, copies := range copiesList {
				mods, addrs := AppendCopyAddrs(m, []uint64{^uint64(0)}, []uint64{42}, vars, copies)
				if mods[0] != ^uint64(0) || addrs[0] != 42 || len(mods) != 1+len(vars)*copies || len(addrs) != len(mods) {
					t.Fatalf("copies=%d: bulk returned %d/%d entries or clobbered the prefix", copies, len(mods), len(addrs))
				}
				for i, v := range vars {
					for c := 0; c < copies; c++ {
						at := 1 + i*copies + c
						if wm, wa := m.CopyAddr(v, c); mods[at] != wm || addrs[at] != wa {
							t.Fatalf("copies=%d: copy %d of %d = (%d,%d), per-op (%d,%d)", copies, c, v, mods[at], addrs[at], wm, wa)
						}
					}
				}
			}
		})
	}
}

// wrongTorus is an explicit indexer whose torus scalar is μ² in place of μ:
// its seeds (k = 0) resolve as before, every other lifted row moves wrongly.
type wrongTorus struct {
	*core.ExplicitIndexer
	mu2 uint32
}

func (w wrongTorus) Torus() uint32 { return w.mu2 }

// TestTorusGuardPanics checks NewCoreMapper's construction guard: a lift
// whose far ends do not match their kernel rows panics.
func TestTorusGuardPanics(t *testing.T) {
	s, err := core.New(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplicitIndexer(s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "torus lift places copy") {
			t.Fatalf("NewCoreMapper over a wrong torus: recovered %v, want the guard's panic", r)
		}
	}()
	mu := ex.Torus()
	NewCoreMapper(s, wrongTorus{ex, s.F.Mul(mu, mu)})
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
	m := mapperFuzzSetup(t)[0]
	r, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewGenericSystem(r, Config{Strategy: ResolverComputed})
	if err != nil {
		t.Fatal(err)
	}
	if sys.resolver != nil || sys.bulkSrc != m {
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
