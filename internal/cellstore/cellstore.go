// Package cellstore holds the memory cells of the shared-memory machine: one
// timestamped value per copy address (the paper's time-stamped copies, after
// Thomas' majority-consensus rule — the ABD server state). It is the one cell
// store of the repository: protocol.System keeps its in-process cells in it
// (every shard of a shard.Service the same one) and netmpc.Server one per
// StoreID.
//
// # Concurrency
//
// Callers that touch disjoint cells may share a Store without a lock: a page
// is installed with one atomic compare-and-swap, so two writers racing into a
// fresh page agree on one page and neither loses a write, and a cell is only
// ever read or written by the one caller that owns it. The shards of a
// shard.Service share one Store on these terms — a cell is one copy of one
// variable, and the router gives each variable one shard. Callers that touch
// the same cells must serialize their access themselves: netmpc.Server keeps
// its mutex around each store, because its connections share cells.
package cellstore

import "sync/atomic"

// Cell is one physical copy: a value and the timestamp of the write that
// produced it.
type Cell struct {
	Val, TS uint64
}

// PageCells is the page size: 4096 cells, 64 KiB.
const (
	pageShift = 12
	PageCells = 1 << pageShift
)

// Store is an array of cells indexed by flat copy address. The array is
// paged — a directory over the whole address space whose pages are allocated
// by the first write into them — so a cell access is two indexed loads at
// every geometry (on amd64 the atomic directory load is a plain load), a
// store holds memory only where it was written, and a cell that was never
// written reads as (0, 0) exactly as in a zeroed array.
type Store struct {
	pages []atomic.Pointer[[PageCells]Cell]
}

// New returns an empty store over addresses [0, addrSpace).
func New(addrSpace uint64) *Store {
	return &Store{pages: make([]atomic.Pointer[[PageCells]Cell], (addrSpace+PageCells-1)>>pageShift)}
}

// Get returns the cell at addr, which must be below the address space.
func (s *Store) Get(addr uint64) Cell {
	if pg := s.pages[addr>>pageShift].Load(); pg != nil {
		return pg[addr&(PageCells-1)]
	}
	return Cell{}
}

// TryPut stores c at addr when addr's page is already installed and reports
// whether it did. It is the write fast path, small enough to inline: a caller
// falls back to Put only for a page's first write.
func (s *Store) TryPut(addr uint64, c Cell) bool {
	if pg := s.pages[addr>>pageShift].Load(); pg != nil {
		pg[addr&(PageCells-1)] = c
		return true
	}
	return false
}

// Put stores c at addr, which must be below the address space. Of writers
// racing into a fresh page, the first compare-and-swap installs its page and
// the others write into that one.
func (s *Store) Put(addr uint64, c Cell) {
	slot := &s.pages[addr>>pageShift]
	pg := slot.Load()
	if pg == nil {
		if pg = new([PageCells]Cell); !slot.CompareAndSwap(nil, pg) {
			pg = slot.Load()
		}
	}
	pg[addr&(PageCells-1)] = c
}

// PutIfNewer installs c only when its timestamp beats the resident cell's —
// the repair-write rule: a rebuild carries the timestamp of the majority it
// read, so it can race a concurrent normal write (which carries a newer
// batch timestamp) without ever rolling the copy back. A stale write into a
// page nobody wrote allocates nothing.
func (s *Store) PutIfNewer(addr uint64, c Cell) {
	if c.TS > s.Get(addr).TS {
		s.Put(addr, c)
	}
}

// Pages returns the number of pages allocated so far.
func (s *Store) Pages() int {
	n := 0
	for i := range s.pages {
		if s.pages[i].Load() != nil {
			n++
		}
	}
	return n
}
