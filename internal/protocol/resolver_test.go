package protocol

import (
	"fmt"
	"runtime"
	"testing"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/obs"
)

// TestCompiledResolverEquivalence proves the compiled table is byte-identical
// to live CopyAddr resolution: for every mapper in the fuzz matrix, every
// variable, every copy, the table returns exactly the (module, addr) the live
// algebra computes, whatever the number of build workers. Compilation runs
// GOMAXPROCS workers, so eager-1worker sets GOMAXPROCS to 1. The matrix's
// q=2 scheme has 84 variables — one block of one worker — so the serving
// scheme, q=2 n=7 (349 504 variables), is swept whole at 1 and 3 workers:
// that crosses compile-block edges inside a worker's range and range edges
// between workers that do not fall on a block edge.
func TestCompiledResolverEquivalence(t *testing.T) {
	check := func(t *testing.T, m Mapper, procs int, step uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := CompileMapper(m, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(0); v < m.NumVars(); v += step {
			for c := 0; c < m.Copies(); c++ {
				wantMod, wantAddr := m.CopyAddr(v, c)
				gotMod, gotAddr := r.CopyAddr(v, c)
				if gotMod != wantMod || gotAddr != wantAddr {
					t.Fatalf("%s: compiled CopyAddr(%d,%d) = (%d,%d), live = (%d,%d)",
						m.Name(), v, c, gotMod, gotAddr, wantMod, wantAddr)
				}
			}
		}
	}
	for _, m := range mapperFuzzSetup(t) {
		// Sweep every variable on small mappers; stride large ones (the q=8
		// core scheme has 266k variables) so ~32k spread over every worker's
		// range are still checked.
		step := uint64(1)
		if m.NumVars() > 1<<15 {
			step = m.NumVars() >> 15
		}
		for _, mode := range []struct {
			name  string
			procs int
		}{{"eager", runtime.GOMAXPROCS(0)}, {"eager-1worker", 1}} {
			t.Run(fmt.Sprintf("%s/%s", m.Name(), mode.name), func(t *testing.T) {
				check(t, m, mode.procs, step)
			})
		}
	}
	s, err := core.New(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	serving := NewCoreMapper(s, idx)
	// -short (the race lanes, where live CopyAddr is slow) checks every 17th
	// variable; 17 is prime to the block size, so the checked rows still fall
	// at every offset within a block.
	step := uint64(1)
	if testing.Short() {
		step = 17
	}
	for _, mode := range []struct {
		name  string
		procs int
	}{{"eager-1worker", 1}, {"eager-3workers", 3}} {
		t.Run("serving-q2n7/"+mode.name, func(t *testing.T) {
			check(t, serving, mode.procs, step)
		})
	}
}

// TestCompiledResolverMetadata checks the Mapper view of a resolver matches
// the underlying organization exactly, so a resolver can stand in for its
// mapper anywhere (reports, systems, frontends).
func TestCompiledResolverMetadata(t *testing.T) {
	for _, m := range mapperFuzzSetup(t) {
		r, err := CompileMapper(m, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != m.Name() || r.NumVars() != m.NumVars() || r.NumModules() != m.NumModules() ||
			r.Copies() != m.Copies() || r.ReadQuorum() != m.ReadQuorum() ||
			r.WriteQuorum() != m.WriteQuorum() || r.AddrSpace() != m.AddrSpace() {
			t.Fatalf("%s: resolver metadata diverges from mapper", m.Name())
		}
		if r.Mapper() != m {
			t.Fatalf("%s: Mapper() does not return the compiled organization", m.Name())
		}
	}
}

// TestCompileMapperIdempotent checks compiling a resolver returns it
// unchanged.
func TestCompileMapperIdempotent(t *testing.T) {
	m := mapperFuzzSetup(t)[0]
	r1, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CompileMapper(r1, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("recompiling a CompiledResolver built a new one")
	}
	if _, err := CompileMapper(nil, CompileOptions{}); err == nil {
		t.Fatal("CompileMapper(nil) did not error")
	}
}

// sizedMapper is a stub geometry for the size and packing rules, which ask
// only for these four numbers (and the name, to report a refusal).
type sizedMapper struct {
	Mapper
	vars, modules, space uint64
	copies               int
}

func (m sizedMapper) Name() string       { return "stub" }
func (m sizedMapper) NumVars() uint64    { return m.vars }
func (m sizedMapper) Copies() int        { return m.copies }
func (m sizedMapper) NumModules() uint64 { return m.modules }
func (m sizedMapper) AddrSpace() uint64  { return m.space }

// TestTableFitsCutoff pins the size rule between the two resolvers at 2^24
// table entries, inclusive.
func TestTableFitsCutoff(t *testing.T) {
	for _, tc := range []struct {
		vars   uint64
		copies int
		fits   bool
	}{
		{1 << 24, 1, true},
		{1<<24 + 1, 1, false},
		{1 << 22, 4, true},
		{1<<22 + 1, 4, false},
		{5592405, 3, true},  // 2^24 - 1 entries
		{5592406, 3, false}, // 2^24 + 2 entries
	} {
		if got := TableFits(sizedMapper{vars: tc.vars, copies: tc.copies, modules: 64, space: 1 << 20}); got != tc.fits {
			t.Errorf("TableFits(M=%d, copies=%d) = %v, want %v (%d entries)",
				tc.vars, tc.copies, got, tc.fits, tc.vars*uint64(tc.copies))
		}
	}
}

// TestPackingLimits pins the limits of the one-word copy: 2^24 modules and a
// 2^40-cell address space fit, one more of either does not — TableFits says
// no, CompileMapper and NewGenericSystem refuse — and the extreme module and
// address survive a round trip through the packing.
func TestPackingLimits(t *testing.T) {
	for _, tc := range []struct {
		modules, space uint64
		fits           bool
	}{
		{1 << 24, 1 << 40, true},
		{1<<24 + 1, 1 << 40, false},
		{1 << 24, 1<<40 + 1, false},
	} {
		m := sizedMapper{vars: 4, copies: 1, modules: tc.modules, space: tc.space}
		if got := TableFits(m); got != tc.fits {
			t.Errorf("TableFits(N=%d, space=%d) = %v, want %v", tc.modules, tc.space, got, tc.fits)
		}
		if tc.fits {
			continue // compiling would call the stub's CopyAddr
		}
		if _, err := CompileMapper(m, CompileOptions{}); err == nil {
			t.Errorf("CompileMapper accepted N=%d, space=%d", tc.modules, tc.space)
		}
	}
	// A System packs its rows on the computed path too, so it refuses as well.
	real := mapperFuzzSetup(t)[0]
	over := sizedMapper{Mapper: real, vars: real.NumVars(), copies: real.Copies(), modules: real.NumModules(), space: 1<<40 + 1}
	if _, err := NewGenericSystem(over, Config{Strategy: ResolverComputed}); err == nil {
		t.Error("NewGenericSystem accepted a 2^40+1-cell address space")
	}
	cp := packCopy(1<<24-1, 1<<40-1)
	if cp.module() != 1<<24-1 || cp.addr() != 1<<40-1 {
		t.Fatalf("packCopy round trip: module %d, addr %d", cp.module(), cp.addr())
	}
}

// TestResolverSharedAcrossSystems runs two systems over one shared eager
// resolver (one via Config.Resolver, one using the resolver as its Mapper)
// and checks they behave identically to an uncompiled system.
func TestResolverSharedAcrossSystems(t *testing.T) {
	s, err := core.New(1, 3) // q=2
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

	plain, err := NewGenericSystem(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	viaCfg, err := NewGenericSystem(m, Config{Resolver: r})
	if err != nil {
		t.Fatal(err)
	}
	viaMapper, err := NewGenericSystem(r, Config{})
	if err != nil {
		t.Fatal(err)
	}

	n := m.NumModules()
	vars := make([]uint64, n)
	vals := make([]uint64, n)
	for b := 0; b < 10; b++ {
		for i := range vars {
			vars[i] = (uint64(i)*2654435761 + uint64(b)*97) % m.NumVars()
			vals[i] = uint64(b)<<32 | uint64(i)
		}
		dedup := map[uint64]bool{}
		w := 0
		for _, v := range vars {
			if !dedup[v] {
				dedup[v] = true
				vars[w] = v
				w++
			}
		}
		vars := vars[:w]
		vals := vals[:w]
		for _, sys := range []*System{plain, viaCfg, viaMapper} {
			if _, err := sys.WriteBatch(vars, vals); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][]uint64, 3)
		for i, sys := range []*System{plain, viaCfg, viaMapper} {
			vs, _, err := sys.ReadBatch(vars)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = vs
		}
		for i := range vars {
			if got[0][i] != got[1][i] || got[0][i] != got[2][i] {
				t.Fatalf("batch %d var %d: plain=%d viaCfg=%d viaMapper=%d",
					b, vars[i], got[0][i], got[1][i], got[2][i])
			}
			if got[0][i] != vals[i] {
				t.Fatalf("batch %d var %d: read %d, wrote %d", b, vars[i], got[0][i], vals[i])
			}
		}
	}
}

// TestResolverGeometryMismatch checks Config.Resolver rejects a resolver
// compiled for a different organization.
func TestResolverGeometryMismatch(t *testing.T) {
	mv, err := baseline.NewMV(64, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := baseline.NewMV(64, 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileMapper(other, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenericSystem(mv, Config{Resolver: r}); err == nil {
		t.Fatal("mismatched resolver accepted")
	}
}

// TestResolverResidencyGauges checks the table reports vars·copies·8
// resident bytes.
func TestResolverResidencyGauges(t *testing.T) {
	m := mapperFuzzSetup(t)[2]
	r, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResidentBytes(), m.NumVars()*uint64(m.Copies())*8; got != want {
		t.Fatalf("ResidentBytes() = %d, want %d", got, want)
	}
}

// TestSystemWiresResolverObserver checks NewGenericSystem reports the table
// it resolves through to a collector Observer — to each System's own
// collector when several share one table — and reports nothing for a
// table-free System.
func TestSystemWiresResolverObserver(t *testing.T) {
	mv, err := baseline.NewMV(64, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileMapper(mv, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c := obs.NewCollector()
		if _, err := NewGenericSystem(mv, Config{Resolver: r, Observer: c}); err != nil {
			t.Fatal(err)
		}
		if uint64(c.ResolverBytes.Load()) != r.ResidentBytes() {
			t.Fatalf("system %d over the table: gauge bytes=%d, want %d",
				i, c.ResolverBytes.Load(), r.ResidentBytes())
		}
	}
	c := obs.NewCollector()
	if _, err := NewGenericSystem(r, Config{Strategy: ResolverComputed, Observer: c}); err != nil {
		t.Fatal(err)
	}
	if c.ResolverBytes.Load() != 0 {
		t.Fatalf("table-free system published bytes=%d, want 0", c.ResolverBytes.Load())
	}
}
