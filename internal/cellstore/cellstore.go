// Package cellstore holds the memory cells of the shared-memory machine: one
// timestamped value per copy address (the paper's time-stamped copies, after
// Thomas' majority-consensus rule — the ABD server state). It is the one cell
// store of the repository: protocol.System keeps its in-process cells in it
// and netmpc.Server one per StoreID.
package cellstore

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
// every geometry, a store holds memory only where it was written, and a cell
// that was never written reads as (0, 0) exactly as in a zeroed array.
//
// A Store is not safe for concurrent use; netmpc.Server keeps a mutex around
// each of its stores.
type Store struct {
	pages []*[PageCells]Cell
}

// New returns an empty store over addresses [0, addrSpace).
func New(addrSpace uint64) *Store {
	return &Store{pages: make([]*[PageCells]Cell, (addrSpace+PageCells-1)>>pageShift)}
}

// Get returns the cell at addr, which must be below the address space.
func (s *Store) Get(addr uint64) Cell {
	if pg := s.pages[addr>>pageShift]; pg != nil {
		return pg[addr&(PageCells-1)]
	}
	return Cell{}
}

// Put stores c at addr, which must be below the address space.
func (s *Store) Put(addr uint64, c Cell) {
	pg := s.pages[addr>>pageShift]
	if pg == nil {
		pg = new([PageCells]Cell)
		s.pages[addr>>pageShift] = pg
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
	for _, pg := range s.pages {
		if pg != nil {
			n++
		}
	}
	return n
}
