package protocol

import (
	"fmt"
	"runtime"
	"sync"
)

// packedCopy is one copy location in one word — the module serving the copy
// in the high 24 bits, the copy's flat storage address in the low 40. It is
// the form a copy has everywhere on the batch path: a compiled table row is
// Copies of them, a batch's resolved rows are gathered as they are, and an
// in-flight bid carries one. Nothing expands them.
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

// checkPackable refuses a mapper whose modules or addresses do not fit a
// packedCopy.
func checkPackable(m Mapper) error {
	if m.NumModules() > maxPackedModules || m.AddrSpace() > maxPackedAddrs {
		return fmt.Errorf("protocol: %s has %d modules over %d cells, beyond the packed-copy limits of 2^24 modules and 2^40 cells",
			m.Name(), m.NumModules(), m.AddrSpace())
	}
	return nil
}

// CompileOptions tunes CompileMapper.
type CompileOptions struct {
	// Workers bounds the goroutines used to build the table; 0 means
	// GOMAXPROCS.
	Workers int
}

// TableFits is the size rule that picks between the two resolution paths: a
// mapper whose dense table has at most 2^24 entries (NumVars·Copies; 128 MiB
// of packed copies) is worth compiling, a larger one — or one whose modules
// or addresses do not fit a packed copy — resolves through the computed bulk
// kernels instead. shard.New applies it under the zero-value strategy.
func TableFits(m Mapper) bool {
	return m.NumVars()*uint64(m.Copies()) <= 1<<24 && checkPackable(m) == nil
}

// CompiledResolver is a compiled address map for a Mapper: the (module,
// address) of every copy of every variable, precomputed into a dense
// immutable table so the per-batch resolution sweep is an O(1) array read per
// copy instead of the live O(log N) algebra of Mapper.CopyAddr.
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
	table  []packedCopy // len = vars·copies, immutable
}

// CompileMapper compiles m's address map, building the table in parallel
// across opts.Workers goroutines. It compiles whatever it is handed; callers
// that must not hold an oversized table ask TableFits first. Compiling an
// already compiled resolver returns it unchanged.
func CompileMapper(m Mapper, opts CompileOptions) (*CompiledResolver, error) {
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
	if err := checkPackable(m); err != nil {
		return nil, err
	}
	r := &CompiledResolver{inner: m, vars: vars, copies: copies, table: make([]packedCopy, vars*uint64(copies))}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if uint64(workers) > vars {
		workers = int(vars)
	}
	chunk := (vars + uint64(workers) - 1) / uint64(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := uint64(w) * chunk
		hi := lo + chunk
		if hi > vars {
			hi = vars
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			compileRange(m, r.table, lo, hi, copies)
		}(lo, hi)
	}
	wg.Wait()
	return r, nil
}

// compileRange fills table with the copies of variables [lo, hi).
func compileRange(m Mapper, table []packedCopy, lo, hi uint64, copies int) {
	for v := lo; v < hi; v++ {
		base := v * uint64(copies)
		for c := 0; c < copies; c++ {
			mod, addr := m.CopyAddr(v, c)
			table[base+uint64(c)] = packCopy(mod, addr)
		}
	}
}

// row returns the compiled copies of v as one dense slice. v must be below
// NumVars.
func (r *CompiledResolver) row(v uint64) []packedCopy {
	c := uint64(r.copies)
	return r.table[v*c : v*c+c]
}

// Mapper returns the memory organization the resolver was compiled from.
func (r *CompiledResolver) Mapper() Mapper { return r.inner }

// ResidentBytes reports the table's memory: 8 bytes per copy entry.
func (r *CompiledResolver) ResidentBytes() uint64 {
	return uint64(len(r.table)) * 8
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
	cp := r.row(v)[c]
	return uint64(cp.module()), cp.addr()
}

// AddrSpace returns the underlying address-space bound.
func (r *CompiledResolver) AddrSpace() uint64 { return r.inner.AddrSpace() }

var _ Mapper = (*CompiledResolver)(nil)
