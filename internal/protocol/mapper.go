package protocol

import (
	"detshmem/internal/core"
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
}

// NewCoreMapper wraps the Pietracaprina–Preparata organization as a Mapper.
func NewCoreMapper(s *core.Scheme, idx core.Indexer) Mapper {
	return &coreMapper{s: s, idx: idx}
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
