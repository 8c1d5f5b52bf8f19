package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"detshmem/internal/core"
	"detshmem/internal/obs"
	"detshmem/internal/pgl"
)

// TestCompiledResolverEquivalence proves the compiled table is byte-identical
// to live CopyAddr resolution: for every PP93 mapper in the fuzz matrix, every
// variable, every copy, the table returns exactly the (module, addr) the live
// algebra computes, whatever GOMAXPROCS is (eager-1worker sets it to 1). The
// matrix's baselines have no table: each of their cells checks that
// CompileMapper refuses the mapper by name and that a System over it
// resolves live, row for row as CopyAddr does. The matrix's q=4 and q=8
// schemes have no torus orbits, so every row of theirs resolves directly.
// The orbit cells, q=2 n=5 and n=7, cross every edge between seed and
// derived rows: each S₄ class start and the end of its first period, the
// end of S₁ and the edges of S₂/S₃. n=5 is swept whole, n=7 whole too
// (every 17th variable under -short) plus every edge row.
func TestCompiledResolverEquivalence(t *testing.T) {
	check := func(t *testing.T, m Mapper, procs int, vars []uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := CompileMapper(m, CompileOptions{})
		if _, pp93 := m.(*coreMapper); !pp93 {
			checkResolvesLive(t, m, err, vars)
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vars {
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
		// core scheme has 266k variables) so ~32k are still checked.
		step := uint64(1)
		if m.NumVars() > 1<<15 {
			step = m.NumVars() >> 15
		}
		for _, mode := range []struct {
			name  string
			procs int
		}{{"eager", runtime.GOMAXPROCS(0)}, {"eager-1worker", 1}} {
			t.Run(fmt.Sprintf("%s/%s", m.Name(), mode.name), func(t *testing.T) {
				check(t, m, mode.procs, strided(m.NumVars(), step))
			})
		}
	}
	for _, n := range []int{5, 7} {
		m := pp93Mapper(t, 1, n)
		// -short (the race lanes, where live CopyAddr is slow) strides n=7
		// by 17, which is prime to every period, so the checked rows still
		// fall at every offset within one.
		step := uint64(1)
		if testing.Short() && n == 7 {
			step = 17
		}
		vars := append(strided(m.NumVars(), step), orbitEdges(t, m)...)
		t.Run(fmt.Sprintf("orbits-q2n%d", n), func(t *testing.T) {
			check(t, m, runtime.GOMAXPROCS(0), vars)
		})
	}
}

// strided lists every step-th variable below vars.
func strided(vars, step uint64) []uint64 {
	var out []uint64
	for v := uint64(0); v < vars; v += step {
		out = append(out, v)
	}
	return out
}

// orbitEdges lists both sides of every edge of m's table build: each torus
// orbit's start, the end of its seed period and its end, and the S₂/S₃
// edges.
func orbitEdges(t *testing.T, m Mapper) []uint64 {
	t.Helper()
	ex, ok := m.(*coreMapper).idx.(*core.ExplicitIndexer)
	if !ok {
		t.Fatalf("%s: no explicit indexer", m.Name())
	}
	c1, c2, c3, _ := ex.SetSizes()
	edges := []uint64{c1, c1 + c2, c1 + c2 + c3}
	for _, o := range ex.Orbits() {
		edges = append(edges, o.First, o.First+o.Period, o.First+o.Count)
	}
	var out []uint64
	for _, e := range edges {
		for _, v := range []uint64{e - 1, e, e + 1} {
			if v < m.NumVars() {
				out = append(out, v)
			}
		}
	}
	return out
}

// TestCompileRefusesBrokenTorus checks that the bijection check covers the
// derived rows. It compiles q=2 n=5 with one orbit narrowed to a single
// derived row, first under the true π_g — the table matches live
// resolution — then with π_g corrupted at the module of that row's copy 0,
// which moves exactly one derived entry onto an address another variable
// holds. Compilation must fail naming that address.
func TestCompileRefusesBrokenTorus(t *testing.T) {
	m := pp93Mapper(t, 1, 5)
	cm := m.(*coreMapper)
	ex := cm.idx.(*core.ExplicitIndexer)
	shift, err := tableShift(m)
	if err != nil {
		t.Fatal(err)
	}
	o := ex.Orbits()[5]
	one := core.Orbit{First: o.First, Count: o.Period + 1, Period: o.Period}
	perm := cm.s.TorusPerm(ex.Torus())
	r, err := compile(m, shift, torus{orbits: []core.Orbit{one}, perm: perm})
	if err != nil {
		t.Fatal(err)
	}
	v := o.First + o.Period
	for c := 0; c < m.Copies(); c++ {
		if wantMod, wantAddr := m.CopyAddr(v, c); r.row(v)[c] != uint32(wantAddr) || wantMod != uint64(r.row(v)[c]>>shift) {
			t.Fatalf("derived copy %d of %d = %d, live (%d,%d)", c, v, r.row(v)[c], wantMod, wantAddr)
		}
	}
	src, _ := m.CopyAddr(v-o.Period, 0)
	bad := slices.Clone(perm)
	bad[src] ^= 1
	_, wrong := m.CopyAddr(v, 0)
	wrong = uint64(bad[src])<<shift | wrong&(1<<shift-1)
	_, err = compile(m, shift, torus{orbits: []core.Orbit{one}, perm: bad})
	if err == nil {
		t.Fatalf("compile accepted π_g corrupted at module %d", src)
	}
	if want := fmt.Sprintf("address %d ", wrong); !strings.Contains(err.Error(), want) {
		t.Fatalf("compile error %q does not name the duplicated address %d", err, wrong)
	}
}

// checkResolvesLive checks a mapper without a table: compileErr, what
// CompileMapper returned for it, names the mapper, and a System over it
// attaches no resolver and resolves vars exactly as CopyAddr does.
func checkResolvesLive(t *testing.T, m Mapper, compileErr error, vars []uint64) {
	t.Helper()
	if compileErr == nil || !strings.Contains(compileErr.Error(), m.Name()) {
		t.Fatalf("%s: CompileMapper error %v, want a refusal naming the mapper", m.Name(), compileErr)
	}
	if TableFits(m) {
		t.Fatalf("%s: TableFits says a mapper without a table fits", m.Name())
	}
	sys, err := NewGenericSystem(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.resolver != nil {
		t.Fatalf("%s: a System attached a resolver", m.Name())
	}
	rows := sys.resolveVars(vars, nil)
	for i, v := range vars {
		for c := 0; c < m.Copies(); c++ {
			wantMod, wantAddr := m.CopyAddr(v, c)
			if cp := rows[i*m.Copies()+c]; uint64(cp.module()) != wantMod || cp.addr() != wantAddr {
				t.Fatalf("%s: resolved copy %d of %d = (%d,%d), live = (%d,%d)",
					m.Name(), c, v, cp.module(), cp.addr(), wantMod, wantAddr)
			}
		}
	}
}

// servingMapper is the PP93 mapper at the serving scheme, q=2 n=7.
func servingMapper(t testing.TB) Mapper {
	t.Helper()
	return pp93Mapper(t, 1, 7)
}

// pp93Mapper is the PP93 mapper at q = 2^m, extension degree n.
func pp93Mapper(t testing.TB, m, n int) Mapper {
	t.Helper()
	s, err := core.New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	return NewCoreMapper(s, idx)
}

// pp93Mappers returns the fuzz matrix's PP93 mappers: q=2, 4 and 8 at n=3.
func pp93Mappers(t testing.TB) []Mapper {
	var out []Mapper
	for _, m := range mapperFuzzSetup(t) {
		if _, ok := m.(*coreMapper); ok {
			out = append(out, m)
		}
	}
	return out
}

// TestCompiledResolverMetadata checks the Mapper view of a resolver matches
// the underlying organization exactly, so a resolver can stand in for its
// mapper anywhere (reports, systems, frontends).
func TestCompiledResolverMetadata(t *testing.T) {
	for _, m := range pp93Mappers(t) {
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
	if !TableFits(r1) {
		t.Fatal("TableFits refused a compiled table")
	}
	if _, err := CompileMapper(nil, CompileOptions{}); err == nil {
		t.Fatal("CompileMapper(nil) did not error")
	}
}

// TestCompiledTablePinned pins the SHA-256 of the serving scheme's compiled
// table (q=2 n=7, every copy's 32-bit flat address, little-endian). The
// round-trip and equivalence tests accept any bijection the live map agrees
// with; this one fails if the variable decode, and with it the address map,
// is reordered. A mismatch is a change of the memory map: never regenerate it
// casually.
func TestCompiledTablePinned(t *testing.T) {
	const want = "95ca3f7335dd243358868f9436d1dddae7022913984d97b8c194a19c5acb2067"
	r, err := CompileMapper(servingMapper(t), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*len(r.table))
	for i, a := range r.table {
		binary.LittleEndian.PutUint32(buf[4*i:], a)
	}
	if sum := sha256.Sum256(buf); hex.EncodeToString(sum[:]) != want {
		got := hex.EncodeToString(sum[:])
		t.Fatalf("q=2 n=7 compiled table hash %s, pinned %s", got, want)
	}
}

// countIndexer claims n variables and resolves none: it lets a real scheme's
// mapper stand at any size for the size rule, which asks only for counts.
type countIndexer uint64

func (n countIndexer) M() uint64        { return uint64(n) }
func (countIndexer) Mat(uint64) pgl.Mat { panic("countIndexer resolves no variable") }

// resized returns a copy of the PP93 mapper m with its variable count, module
// count and module size replaced, for the size and table rules. Compiling or
// resolving through it panics.
func resized(m Mapper, vars, modules uint64, moduleSize uint32) *coreMapper {
	s := *m.(*coreMapper).s
	s.NumModules, s.ModuleSize = modules, moduleSize
	return &coreMapper{s: &s, idx: countIndexer(vars)}
}

// TestTableFitsCutoff pins the size rule between the two resolvers at 2^24
// table entries. A PP93 row has q+1 entries, an odd number, so no PP93 table
// has exactly 2^24; the cells sit on either side of it at q=2 and q=4.
func TestTableFitsCutoff(t *testing.T) {
	mappers := pp93Mappers(t)
	for _, tc := range []struct {
		m    Mapper
		vars uint64
		fits bool
	}{
		{mappers[0], 5592405, true},  // 2^24 - 1 entries
		{mappers[0], 5592406, false}, // 2^24 + 2 entries
		{mappers[1], 3355443, true},  // 2^24 - 1 entries
		{mappers[1], 3355444, false}, // 2^24 + 4 entries
	} {
		real := tc.m.(*coreMapper)
		m := resized(real, tc.vars, real.s.NumModules, real.s.ModuleSize)
		if got := TableFits(m); got != tc.fits {
			t.Errorf("TableFits(M=%d, copies=%d) = %v, want %v (%d entries)",
				tc.vars, m.Copies(), got, tc.fits, tc.vars*uint64(m.Copies()))
		}
	}
}

// TestPackingLimits pins the limits of the two copy forms. A table entry is
// a 32-bit flat address whose high bits name the module: an address space of
// 2^32 cells in modules of a power-of-two size fits, one more module or a
// module size that is no power of two does not — TableFits says no and
// CompileMapper refuses. A batch row's packed copy holds at most 2^24 modules
// and a 2^40-cell address space, so NewGenericSystem refuses a mapper beyond
// either, and the extreme module and address survive a round trip through
// the packing.
func TestPackingLimits(t *testing.T) {
	small := mapperFuzzSetup(t)[0]
	for _, tc := range []struct {
		modules    uint64
		moduleSize uint32
		fits       bool
	}{
		{1 << 16, 1 << 16, true},
		{1<<16 + 1, 1 << 16, false},
		{1 << 10, 3 << 10, false},
	} {
		m := resized(small, 4, tc.modules, tc.moduleSize)
		if got := TableFits(m); got != tc.fits {
			t.Errorf("TableFits(N=%d, module size %d) = %v, want %v", tc.modules, tc.moduleSize, got, tc.fits)
		}
		if tc.fits {
			continue // compiling would resolve through the stub indexer
		}
		if _, err := CompileMapper(m, CompileOptions{}); err == nil {
			t.Errorf("CompileMapper accepted N=%d, module size %d", tc.modules, tc.moduleSize)
		}
	}
	// A System packs its rows on the computed path too, so it refuses a
	// mapper beyond the packing limits as well.
	for _, over := range []*coreMapper{
		resized(small, small.NumVars(), 1<<24+1, 1),
		resized(small, small.NumVars(), 1<<24, 1<<17),
	} {
		if _, err := NewGenericSystem(over, Config{Strategy: ResolverComputed}); err == nil {
			t.Errorf("NewGenericSystem accepted N=%d over %d cells", over.NumModules(), over.AddrSpace())
		}
	}
	cp := packCopy(1<<24-1, 1<<40-1)
	if cp.module() != 1<<24-1 || cp.addr() != 1<<40-1 {
		t.Fatalf("packCopy round trip: module %d, addr %d", cp.module(), cp.addr())
	}
	// The widest table entry widens to its module and address unchanged.
	if cp := flatCopy(1<<32-1, 16); cp.module() != 1<<16-1 || cp.addr() != 1<<32-1 {
		t.Fatalf("flatCopy: module %d, addr %d", cp.module(), cp.addr())
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
	mappers := pp93Mappers(t)
	r, err := CompileMapper(mappers[1], CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenericSystem(mappers[0], Config{Resolver: r}); err == nil {
		t.Fatal("mismatched resolver accepted")
	}
}

// TestResolverResidencyGauges checks the table reports vars·copies·4
// resident bytes, and that a System over the serving scheme's table, q=2
// n=7, publishes its 4 194 048 bytes to the resolver_resident_bytes gauge.
func TestResolverResidencyGauges(t *testing.T) {
	m := mapperFuzzSetup(t)[0]
	r, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResidentBytes(), m.NumVars()*uint64(m.Copies())*4; got != want {
		t.Fatalf("ResidentBytes() = %d, want %d", got, want)
	}
	serving := servingMapper(t)
	table, err := CompileMapper(serving, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	if _, err := NewGenericSystem(serving, Config{Resolver: table, Observer: c}); err != nil {
		t.Fatal(err)
	}
	if got := c.ResolverBytes.Load(); got != 4_194_048 {
		t.Fatalf("q=2 n=7: resolver_resident_bytes = %d, want 4194048", got)
	}
}

// TestSystemWiresResolverObserver checks NewGenericSystem reports the table
// it resolves through to a collector Observer — to each System's own
// collector when several share one table — and reports nothing for a
// table-free System.
func TestSystemWiresResolverObserver(t *testing.T) {
	m := mapperFuzzSetup(t)[0]
	r, err := CompileMapper(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c := obs.NewCollector()
		if _, err := NewGenericSystem(m, Config{Resolver: r, Observer: c}); err != nil {
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
