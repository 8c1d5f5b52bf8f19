package cellstore

import (
	"testing"
	"testing/quick"
)

// TestPagedStoreCells: cells on either side of a page boundary are distinct,
// a cell of a page nobody wrote reads as (0, 0) without allocating the page,
// the first write allocates exactly one page, and the last address of a space
// that ends mid-page is addressable.
func TestPagedStoreCells(t *testing.T) {
	const space = 3*PageCells + 17
	st := New(space)
	if len(st.pages) != 4 {
		t.Fatalf("%d pages for %d cells, want 4", len(st.pages), space)
	}
	for _, a := range []uint64{0, PageCells - 1, PageCells, PageCells + 1, space - 1} {
		if c := st.Get(a); c != (Cell{}) {
			t.Fatalf("unwritten cell %d reads %+v", a, c)
		}
	}
	if n := st.Pages(); n != 0 {
		t.Fatalf("reading allocated %d pages", n)
	}
	st.Put(PageCells-1, Cell{Val: 1, TS: 1})
	if n := st.Pages(); n != 1 || st.pages[0] == nil {
		t.Fatalf("the first write left %d pages allocated, want exactly page 0", n)
	}
	st.Put(PageCells, Cell{Val: 2, TS: 2})
	st.Put(space-1, Cell{Val: 3, TS: 3})
	for a, want := range map[uint64]Cell{
		PageCells - 2: {}, PageCells - 1: {1, 1}, PageCells: {2, 2}, PageCells + 1: {}, space - 1: {3, 3}, space - 2: {},
	} {
		if c := st.Get(a); c != want {
			t.Fatalf("cell %d reads %+v, want %+v", a, c, want)
		}
	}
	if st.pages[2] != nil || st.Pages() != 3 {
		t.Fatalf("page 2 was never written; %d pages allocated, want 3", st.Pages())
	}
}

// TestPutIfNewer: a repair-write installs only a strictly newer timestamp,
// never rolls one back, and a stale one allocates no page.
func TestPutIfNewer(t *testing.T) {
	st := New(4 * PageCells)
	addr := uint64(2*PageCells + 5)
	st.PutIfNewer(addr, Cell{Val: 7, TS: 0})
	if st.Pages() != 0 {
		t.Fatal("a repair-write at timestamp 0 allocated its page")
	}
	st.PutIfNewer(addr, Cell{Val: 41, TS: 9})
	st.PutIfNewer(addr, Cell{Val: 13, TS: 4})
	st.PutIfNewer(addr, Cell{Val: 99, TS: 9})
	if c := st.Get(addr); c != (Cell{41, 9}) {
		t.Fatalf("cell reads %+v, want {41 9}", c)
	}
}

// TestStoreEquivalenceQuick: under random operation sequences the paged
// store behaves like a map from address to cell.
func TestStoreEquivalenceQuick(t *testing.T) {
	const space = 2*PageCells + 100
	prop := func(ops []struct {
		Addr  uint64
		Val   uint64
		TS    uint8
		Newer bool
	}) bool {
		st := New(space)
		ref := map[uint64]Cell{}
		for _, op := range ops {
			addr, c := op.Addr%space, Cell{Val: op.Val, TS: uint64(op.TS)}
			if st.Get(addr) != ref[addr] {
				return false
			}
			if !op.Newer {
				st.Put(addr, c)
				ref[addr] = c
			} else {
				st.PutIfNewer(addr, c)
				if c.TS > ref[addr].TS {
					ref[addr] = c
				}
			}
		}
		for a := uint64(0); a < space; a++ {
			if st.Get(a) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
