package protocol

import (
	"fmt"
	"runtime"
	"sync"
)

// packedAssignment is one compiled copy location: the module serving the
// copy and the copy's flat storage address, packed for cache-friendly
// sequential scans by the protocol's per-batch resolution sweep.
type packedAssignment struct {
	module int64
	addr   uint64
}

// CompileOptions tunes CompileMapper.
type CompileOptions struct {
	// Workers bounds the goroutines used to build the table; 0 means
	// GOMAXPROCS.
	Workers int
}

// TableFits is the size rule that picks between the two resolution paths: a
// mapper whose dense table has at most 2^24 entries (NumVars·Copies; 256 MiB
// of packed assignments) is worth compiling, a larger one resolves through
// the computed bulk kernels instead. shard.New applies it under the
// zero-value strategy.
func TableFits(m Mapper) bool {
	return m.NumVars()*uint64(m.Copies()) <= 1<<24
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
	table  []packedAssignment // len = vars·copies, immutable
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
	r := &CompiledResolver{inner: m, vars: vars, copies: copies, table: make([]packedAssignment, vars*uint64(copies))}
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
func compileRange(m Mapper, table []packedAssignment, lo, hi uint64, copies int) {
	for v := lo; v < hi; v++ {
		base := v * uint64(copies)
		for c := 0; c < copies; c++ {
			mod, addr := m.CopyAddr(v, c)
			table[base+uint64(c)] = packedAssignment{module: int64(mod), addr: addr}
		}
	}
}

// row returns the compiled copies of v as one dense slice. v must be below
// NumVars.
func (r *CompiledResolver) row(v uint64) []packedAssignment {
	c := uint64(r.copies)
	return r.table[v*c : v*c+c]
}

// Mapper returns the memory organization the resolver was compiled from.
func (r *CompiledResolver) Mapper() Mapper { return r.inner }

// ResidentBytes reports the table's memory: 16 bytes per copy entry.
func (r *CompiledResolver) ResidentBytes() uint64 {
	return uint64(len(r.table)) * 16
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
	pa := r.row(v)[c]
	return uint64(pa.module), pa.addr
}

// AddrSpace returns the underlying address-space bound.
func (r *CompiledResolver) AddrSpace() uint64 { return r.inner.AddrSpace() }

var _ Mapper = (*CompiledResolver)(nil)
