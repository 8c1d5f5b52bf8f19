package protocol

import (
	"fmt"

	"detshmem/internal/core"
	"detshmem/internal/pgl"
)

// Mapper abstracts a memory-organization scheme for the quorum access
// protocol: how many copies each variable has, where each copy lives, and
// how many copies a read or a write must touch. Quorum correctness requires
// ReadQuorum + WriteQuorum > Copies (any read quorum intersects any write
// quorum), which NewGenericSystem validates.
//
// Implementations in this repository:
//   - the Pietracaprina–Preparata scheme (this package, via NewSystem):
//     q+1 copies, both quorums q/2+1;
//   - Mehlhorn–Vishkin (internal/baseline): c copies, read quorum 1,
//     write quorum c;
//   - single-copy hashed/blocked (internal/baseline): 1 copy, quorums 1;
//   - Upfal–Wigderson random graphs (internal/baseline): 2c−1 copies,
//     quorums c.
type Mapper interface {
	// Name identifies the scheme in reports.
	Name() string
	// NumVars is the number of addressable variables M.
	NumVars() uint64
	// NumModules is the number of memory modules N.
	NumModules() uint64
	// Copies is the replication factor r.
	Copies() int
	// ReadQuorum is the number of copies a read must access.
	ReadQuorum() int
	// WriteQuorum is the number of copies a write must access.
	WriteQuorum() int
	// CopyAddr locates copy c of variable v: the module that serves it and
	// a globally unique copy address used as the storage key.
	CopyAddr(v uint64, c int) (module uint64, addr uint64)
	// AddrSpace is an exclusive upper bound on copy addresses; the store
	// sizes itself from it.
	AddrSpace() uint64
}

// coreMapper adapts core.Scheme + core.Indexer to the Mapper interface.
type coreMapper struct {
	s   *core.Scheme
	idx core.Indexer
	tor *torusRows // nil: every variable resolves through the kernels
}

// NewCoreMapper wraps the Pietracaprina–Preparata organization as a Mapper.
// When the indexer has the torus lift (core.ExplicitIndexer) it resolves
// the lift's seed rows once through the kernels, and checks the far end of
// each seed's orbit against them (checkTorus); it panics, as CopyLocation
// does, if one does not match.
func NewCoreMapper(s *core.Scheme, idx core.Indexer) Mapper {
	m := &coreMapper{s: s, idx: idx}
	if l, ok := idx.(lifter); ok {
		seeds := l.TorusSeeds()
		m.tor = m.resolveSeeds(l, seeds)
		m.checkTorus(seeds)
	}
	return m
}

// lifter is the torus lift of an indexer that has one
// (core.ExplicitIndexer): the scalar μ of g = diag(1, μ), the seeds, and
// each lifted variable's seed slot and power of g.
type lifter interface {
	Torus() uint32
	TorusSeeds() []core.TorusSeed
	TorusLift(v uint64) (slot int, k uint64, ok bool)
}

// torusRows serves the variables the lift covers (S₁–S₃): copy c of
// g^k·seed is copy c of the seed with its module moved by g^k's module map
// and its offset kept (core.TorusAction).
type torusRows struct {
	lift lifter
	act  *core.TorusAction
	rows []seedCopy // copies per seed, slot-major
}

// seedCopy is one copy of a seed row: its module's coset key and its
// in-module offset.
type seedCopy struct {
	s   uint32
	t   int32
	off uint32
}

// resolveSeeds resolves the seed rows of l.
func (m *coreMapper) resolveSeeds(l lifter, seeds []core.TorusSeed) *torusRows {
	vars := make([]uint64, len(seeds))
	for i, sd := range seeds {
		vars[i] = sd.Var
	}
	mods, offs := m.kernelRows(vars)
	k1 := uint64(m.s.F.Order) + 1
	rows := make([]seedCopy, len(mods))
	for i, mod := range mods {
		rows[i] = seedCopy{s: uint32(mod / k1), t: int32(mod%k1) - 1, off: offs[i]}
	}
	return &torusRows{lift: l, act: m.s.TorusAction(l.Torus()), rows: rows}
}

// checkTorus guards the derived copies, which skip the kernel's per-copy
// Lemma 1 check: the far end of each seed's orbit (core.TorusSeed.End),
// derived through AppendCopyAddrs, must equal its kernel row. It costs one
// more kernel row per seed.
func (m *coreMapper) checkTorus(seeds []core.TorusSeed) {
	copies := m.s.Copies
	ends := make([]uint64, len(seeds))
	for i, sd := range seeds {
		ends[i] = sd.End
	}
	kmods, koffs := m.kernelRows(ends)
	mods, addrs := m.AppendCopyAddrs(nil, nil, ends, copies)
	msz := uint64(m.s.ModuleSize)
	for i, mod := range kmods {
		if want := mod*msz + uint64(koffs[i]); mods[i] != mod || addrs[i] != want {
			panic(fmt.Sprintf("protocol: torus lift places copy %d of variable %d at (%d, %d), the kernel at (%d, %d)",
				i%copies, ends[i/copies], mods[i], addrs[i], mod, want))
		}
	}
}

// kernelRows resolves every copy of vars through the batched kernels, which
// check each against Lemma 1: module and in-module offset, vars-major.
func (m *coreMapper) kernelRows(vars []uint64) ([]uint64, []uint32) {
	mats := make([]pgl.Mat, len(vars))
	for i, v := range vars {
		mats[i] = m.idx.Mat(v)
	}
	mods := make([]uint64, len(vars)*m.s.Copies)
	offs := make([]uint32, len(mods))
	m.s.ResolveCopies(mats, m.s.Copies, mods, offs)
	return mods, offs
}

func (m *coreMapper) Name() string       { return "pp93" }
func (m *coreMapper) NumVars() uint64    { return m.idx.M() }
func (m *coreMapper) NumModules() uint64 { return m.s.NumModules }
func (m *coreMapper) Copies() int        { return m.s.Copies }
func (m *coreMapper) ReadQuorum() int    { return m.s.Majority }
func (m *coreMapper) WriteQuorum() int   { return m.s.Majority }

// CopyAddr returns the copy's module and its flat address mod·q^{n−1}+off,
// which is module-major: the compiled table stores the address alone and
// recovers the module with a shift (tableShift).
func (m *coreMapper) CopyAddr(v uint64, c int) (uint64, uint64) {
	mod, off := m.s.CopyLocation(m.idx.Mat(v), c)
	return mod, mod*uint64(m.s.ModuleSize) + uint64(off)
}

func (m *coreMapper) AddrSpace() uint64 {
	return m.s.NumModules * uint64(m.s.ModuleSize)
}
