package netmpc

import "sync"

// cell is one remote memory cell: the stored value and the batch timestamp
// of the write that produced it, mirroring the protocol layer's local store.
type cell struct {
	val, ts uint64
}

// pageShift sizes a store page: 4096 cells, 64 KiB.
const (
	pageShift = 12
	pageCells = 1 << pageShift
)

// store is one StoreID's namespace: the ABD server state, an array of
// timestamped cells indexed by copy address. The array is paged — a
// directory over the whole address space whose pages are allocated by the
// first write into them — so a cell access is two indexed loads at every
// geometry, a store holds memory only where it was written, and a cell that
// was never written reads as (0, 0) exactly as in a zeroed array. A client
// holds one connection per server, so the mutex sees contention on
// reconnects and deliberately shared StoreIDs only.
type store struct {
	mu    sync.Mutex
	pages []*[pageCells]cell
}

func newStore(addrSpace uint64) *store {
	return &store{pages: make([]*[pageCells]cell, (addrSpace+pageCells-1)>>pageShift)}
}

// get returns the cell at addr, which must be below the address space.
func (st *store) get(addr uint64) cell {
	if pg := st.pages[addr>>pageShift]; pg != nil {
		return pg[addr&(pageCells-1)]
	}
	return cell{}
}

// put stores c at addr, which must be below the address space.
func (st *store) put(addr uint64, c cell) {
	pg := st.pages[addr>>pageShift]
	if pg == nil {
		pg = new([pageCells]cell)
		st.pages[addr>>pageShift] = pg
	}
	pg[addr&(pageCells-1)] = c
}
