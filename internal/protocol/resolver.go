package protocol

import (
	"fmt"
	"math/bits"
	"slices"

	"detshmem/internal/core"
)

// packedCopy is one copy location in one word — the module serving the copy
// in the high 24 bits, the copy's flat storage address in the low 40. It is
// the form a copy has everywhere on the batch path past resolution: a batch's
// resolved rows, its tasks and bids and the repair sweep's rows hold them. The
// compiled table keeps only the 32-bit flat address, from which resolution
// rebuilds the packed copy with one shift (flatCopy).
type packedCopy uint64

// The packing limits: a mapper must have at most 2^24 modules and an address
// space of at most 2^40 cells (q=2 reaches neither before n=13).
const (
	packedAddrBits   = 40
	maxPackedModules = 1 << (64 - packedAddrBits)
	maxPackedAddrs   = 1 << packedAddrBits
)

func packCopy(module, addr uint64) packedCopy {
	return packedCopy(module<<packedAddrBits | addr)
}

func (p packedCopy) module() int64 { return int64(p >> packedAddrBits) }
func (p packedCopy) addr() uint64  { return uint64(p) & (maxPackedAddrs - 1) }

// flatCopy rebuilds the packed copy of a compiled table entry: the flat
// address module·q^{n−1}+k names its module in its high bits, addr >> shift.
func flatCopy(addr uint32, shift uint8) packedCopy {
	return packCopy(uint64(addr>>(shift&31)), uint64(addr))
}

// checkPackable refuses a mapper whose modules or addresses do not fit a
// packedCopy.
func checkPackable(m Mapper) error {
	if m.NumModules() > maxPackedModules || m.AddrSpace() > maxPackedAddrs {
		return fmt.Errorf("protocol: %s has %d modules over %d cells, beyond the packed-copy limits of 2^24 modules and 2^40 cells",
			m.Name(), m.NumModules(), m.AddrSpace())
	}
	return nil
}

// maxTableAddrs bounds the address space of a compiled table, whose entries
// are 32-bit flat addresses.
const maxTableAddrs = 1 << 32

// tableShift returns log2 of m's module size — the shift that recovers a
// copy's module from its flat address — or why m has no compiled table. Only
// the PP93 mapper compiles: its address module·q^{n−1}+k is module-major over
// modules of q^{n−1} cells, a power of two (Section 4, bijections 2–3). The
// baselines place a copy at slot v·c+j on a hashed or computed module, so no
// one word holds both; they resolve live, in O(1) per copy already.
func tableShift(m Mapper) (uint8, error) {
	cm, ok := m.(*coreMapper)
	if !ok {
		return 0, fmt.Errorf("protocol: %s has no compiled table: only pp93's flat address names its module, so %s resolves live",
			m.Name(), m.Name())
	}
	if msz := cm.s.ModuleSize; msz == 0 || msz&(msz-1) != 0 || m.AddrSpace() > maxTableAddrs {
		return 0, fmt.Errorf("protocol: %s with %d-cell modules over %d cells does not fit a table of 32-bit flat addresses",
			m.Name(), msz, m.AddrSpace())
	}
	return uint8(bits.TrailingZeros32(cm.s.ModuleSize)), nil
}

// CompileOptions is CompileMapper's options struct. It has no fields:
// compilation has one path. It stays declared because callers outside this
// package name CompileOptions{}.
type CompileOptions struct{}

// TableFits is the size rule that picks between the two resolution paths: a
// PP93 mapper whose dense table has at most 2^24 entries (NumVars·Copies; 64
// MiB of 32-bit addresses) is worth compiling; a larger one, or any other
// mapper (tableShift), resolves through the computed bulk kernels instead.
// shard.New applies it under the zero-value strategy.
func TableFits(m Mapper) bool {
	if r, ok := m.(*CompiledResolver); ok {
		m = r.inner
	}
	_, err := tableShift(m)
	return err == nil && m.NumVars()*uint64(m.Copies()) <= 1<<24
}

// CompiledResolver is a compiled address map for a PP93 Mapper: the flat
// address of every copy of every variable, one uint32 per copy in a dense
// immutable table, so the per-batch resolution sweep is an O(1) array read
// and a shift per copy instead of the live O(log N) algebra of
// Mapper.CopyAddr. At q=2 n=7 the table is 1 048 512 entries, 4 194 048 B.
//
// A resolver is safe for concurrent use and is meant to be shared: any
// number of Systems and frontends over the same memory organization can
// reference one resolver (via Config.Resolver, or by using the resolver
// itself as the System's Mapper — CompiledResolver implements Mapper and
// reports the underlying scheme's name and parameters).
type CompiledResolver struct {
	inner  Mapper
	vars   uint64
	copies int
	shift  uint8    // log2 of the module size: a copy's module is addr >> shift
	table  []uint32 // len = vars·copies, each copy's flat address, immutable
}

// CompileMapper compiles m's address map in three steps. It resolves the
// seed rows through the batched Section 4 kernels (AppendCopyAddrs), which
// decode each variable once, serve all q+1 copies from one determinant log
// and panic, as CopyLocation does, on a copy Lemma 1 does not place. The
// seed rows are the first period of each torus orbit (core.Orbit) and
// every row outside one: S₂ and S₃, and every row of an indexer without
// orbits. It fills every other row from the row one period earlier through
// the module permutation π_g, keeping each offset (core's torus action). It
// then checks that the table is a bijection onto [0, AddrSpace), Lemma 2,
// which any wrong entry breaks by using one address twice. It refuses a
// mapper other than PP93's (tableShift) and compiles any PP93 mapper it is
// handed; callers that must not hold an oversized table ask TableFits
// first. Compiling an already compiled resolver returns it unchanged.
func CompileMapper(m Mapper, _ CompileOptions) (*CompiledResolver, error) {
	if m == nil {
		return nil, fmt.Errorf("protocol: cannot compile nil mapper")
	}
	if r, ok := m.(*CompiledResolver); ok {
		return r, nil
	}
	vars, copies := m.NumVars(), m.Copies()
	if vars == 0 || copies < 1 {
		return nil, fmt.Errorf("protocol: cannot compile %s with %d vars, %d copies", m.Name(), vars, copies)
	}
	shift, err := tableShift(m)
	if err != nil {
		return nil, err
	}
	var tor torus
	cm := m.(*coreMapper) // tableShift admits PP93's mapper only
	if o, ok := cm.idx.(orbiter); ok {
		tor = torus{orbits: o.Orbits(), perm: cm.s.TorusPerm(o.Torus())}
	}
	return compile(m, shift, tor)
}

// orbiter is the torus structure of an indexer that has one
// (core.ExplicitIndexer): the scalar μ of g = diag(1, μ) and the index runs
// g shifts.
type orbiter interface {
	Torus() uint32
	Orbits() []core.Orbit
}

// torus is the structure compile derives rows by: the orbits, ascending, and
// π_g over the modules. The zero torus derives nothing.
type torus struct {
	orbits []core.Orbit
	perm   []uint32
}

// compile builds and checks the table of m under tor.
func compile(m Mapper, shift uint8, tor torus) (*CompiledResolver, error) {
	vars, copies := m.NumVars(), m.Copies()
	r := &CompiledResolver{inner: m, vars: vars, copies: copies, shift: shift, table: make([]uint32, vars*uint64(copies))}
	sc := newSeedScratch(copies)
	next := uint64(0)
	for _, o := range tor.orbits {
		seedEnd := o.First + min(o.Period, o.Count)
		sc.resolve(m, r.table, next, seedEnd)
		r.derive(tor.perm, seedEnd, o.First+o.Count, o.Period)
		next = o.First + o.Count
	}
	sc.resolve(m, r.table, next, vars)
	if err := r.checkBijection(); err != nil {
		return nil, err
	}
	return r, nil
}

// compileBlock is the number of variables resolved per AppendCopyAddrs call.
const compileBlock = 1024

// seedScratch is the scratch of the seed resolution, two words per copy of
// a block, allocated once per compile.
type seedScratch struct {
	vars, mods, addrs []uint64
}

func newSeedScratch(copies int) seedScratch {
	return seedScratch{
		vars:  make([]uint64, 0, compileBlock),
		mods:  make([]uint64, 0, compileBlock*copies),
		addrs: make([]uint64, 0, compileBlock*copies),
	}
}

// resolve fills table with the copies of variables [lo, hi), one block of
// consecutive variables at a time.
func (sc *seedScratch) resolve(m Mapper, table []uint32, lo, hi uint64) {
	copies := m.Copies()
	c := uint64(copies)
	for base := lo; base < hi; base += compileBlock {
		sc.vars = sc.vars[:0]
		for v := base; v < min(base+compileBlock, hi); v++ {
			sc.vars = append(sc.vars, v)
		}
		sc.mods, sc.addrs = AppendCopyAddrs(m, sc.mods[:0], sc.addrs[:0], sc.vars, copies)
		rows := table[base*c : (base+uint64(len(sc.vars)))*c]
		for i := range rows {
			rows[i] = uint32(sc.addrs[i])
		}
	}
}

// derive fills rows [lo, hi) of an orbit of the given period, each from the
// row one period earlier: every copy's module goes through perm and its
// offset, the low shift bits, stays. Rows are filled in ascending order, so
// a row more than one period past the seeds reads a row derived before it.
func (r *CompiledResolver) derive(perm []uint32, lo, hi, period uint64) {
	if lo >= hi {
		return
	}
	c := uint64(r.copies)
	shift, mask := r.shift&31, uint32(1)<<(r.shift&31)-1
	dst := r.table[lo*c : hi*c]
	src := r.table[(lo-period)*c:][:len(dst)]
	for i := range dst {
		a := src[i]
		dst[i] = perm[a>>shift]<<shift | a&mask
	}
}

// checkBijection checks that the table uses every address of [0, AddrSpace)
// exactly once (Lemma 2: the M·(q+1) copies fill the N modules of q^{n−1}
// cells). It names the first address found twice, with both variables.
func (r *CompiledResolver) checkBijection() error {
	space := r.inner.AddrSpace()
	if uint64(len(r.table)) != space {
		return fmt.Errorf("protocol: compiled table of %s has %d entries for %d addresses", r.Name(), len(r.table), space)
	}
	seen := make([]uint64, (space+63)/64)
	for i, a := range r.table {
		if uint64(a) >= space {
			return fmt.Errorf("protocol: compiled table of %s places copy %d of variable %d at address %d, beyond %d",
				r.Name(), i%r.copies, i/r.copies, a, space)
		}
		w, bit := &seen[a>>6], uint64(1)<<(a&63)
		if *w&bit != 0 {
			first := slices.Index(r.table, a)
			return fmt.Errorf("protocol: compiled table of %s is not a bijection: address %d holds copy %d of variable %d and copy %d of variable %d",
				r.Name(), a, first%r.copies, first/r.copies, i%r.copies, i/r.copies)
		}
		*w |= bit
	}
	return nil
}

// row returns the compiled copies of v as one dense slice. v must be below
// NumVars.
func (r *CompiledResolver) row(v uint64) []uint32 {
	c := uint64(r.copies)
	return r.table[v*c : v*c+c]
}

// Mapper returns the memory organization the resolver was compiled from.
func (r *CompiledResolver) Mapper() Mapper { return r.inner }

// ResidentBytes reports the table's memory: 4 bytes per copy entry.
func (r *CompiledResolver) ResidentBytes() uint64 {
	return uint64(len(r.table)) * 4
}

// compatibleWith checks that m has the geometry the resolver was compiled
// for (used when Config.Resolver pairs a resolver with a System's Mapper).
func (r *CompiledResolver) compatibleWith(m Mapper) error {
	if m.NumVars() != r.vars || m.Copies() != r.copies ||
		m.NumModules() != r.inner.NumModules() || m.AddrSpace() != r.inner.AddrSpace() {
		return fmt.Errorf("protocol: resolver compiled for %s (M=%d, copies=%d) does not match mapper %s (M=%d, copies=%d)",
			r.inner.Name(), r.vars, r.copies, m.Name(), m.NumVars(), m.Copies())
	}
	return nil
}

// The Mapper view of a resolver: identical metadata to the underlying
// organization, with CopyAddr served from the compiled table.

// Name identifies the underlying scheme (reports stay comparable).
func (r *CompiledResolver) Name() string { return r.inner.Name() }

// NumVars returns M.
func (r *CompiledResolver) NumVars() uint64 { return r.vars }

// NumModules returns N.
func (r *CompiledResolver) NumModules() uint64 { return r.inner.NumModules() }

// Copies returns the replication factor.
func (r *CompiledResolver) Copies() int { return r.copies }

// ReadQuorum returns the underlying read quorum.
func (r *CompiledResolver) ReadQuorum() int { return r.inner.ReadQuorum() }

// WriteQuorum returns the underlying write quorum.
func (r *CompiledResolver) WriteQuorum() int { return r.inner.WriteQuorum() }

// CopyAddr serves copy c of v from the compiled table.
func (r *CompiledResolver) CopyAddr(v uint64, c int) (uint64, uint64) {
	a := r.row(v)[c]
	return uint64(a >> r.shift), uint64(a)
}

// AddrSpace returns the underlying address-space bound.
func (r *CompiledResolver) AddrSpace() uint64 { return r.inner.AddrSpace() }

var _ Mapper = (*CompiledResolver)(nil)
