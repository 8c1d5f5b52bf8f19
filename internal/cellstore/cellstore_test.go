package cellstore

import (
	"sync"
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
	if n := st.Pages(); n != 1 || st.pages[0].Load() == nil {
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
	if st.pages[2].Load() != nil || st.Pages() != 3 {
		t.Fatalf("page 2 was never written; %d pages allocated, want 3", st.Pages())
	}
}

// TestTryPut: the write fast path stores into an installed page only — into
// a page nobody wrote it reports false and allocates nothing, so the caller's
// Put installs the page — and stores there what Put would.
func TestTryPut(t *testing.T) {
	st := New(2 * PageCells)
	if st.TryPut(PageCells+3, Cell{Val: 1, TS: 1}) || st.Pages() != 0 {
		t.Fatalf("TryPut into an uninstalled page reported a write or allocated (%d pages)", st.Pages())
	}
	st.Put(PageCells, Cell{Val: 2, TS: 2})
	if !st.TryPut(PageCells+3, Cell{Val: 3, TS: 3}) {
		t.Fatal("TryPut into an installed page reported no write")
	}
	if c := st.Get(PageCells + 3); c != (Cell{3, 3}) || st.Pages() != 1 {
		t.Fatalf("cell reads %+v with %d pages, want {3 3} with 1", c, st.Pages())
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

// TestConcurrentDisjointCells: writers that share a Store but touch disjoint
// cells need no lock. Several goroutines write interleaved cells of the same
// fresh pages — writer w owns every address ≡ w mod writers — so they race to
// install every page, and each page must be installed once: a writer whose
// page was replaced by another's would lose its cells. The even writers write
// as protocol.System does, TryPut first and Put only when the page is not yet
// installed; the odd ones call Put alone. Run it under -race.
func TestConcurrentDisjointCells(t *testing.T) {
	const (
		writers = 4
		pages   = 8
		space   = pages * PageCells
	)
	for rep := 0; rep < 20; rep++ {
		st := New(space)
		var start, done sync.WaitGroup
		start.Add(1)
		for w := range writers {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				// Stride across the pages first, so every writer's first
				// write into each page lands while the page is still fresh.
				for off := uint64(w); off < PageCells; off += writers {
					for pg := uint64(0); pg < pages; pg++ {
						a := pg*PageCells + off
						if c := (Cell{Val: a, TS: uint64(w) + 1}); w%2 == 1 || !st.TryPut(a, c) {
							st.Put(a, c)
						}
					}
				}
			}()
		}
		start.Done()
		done.Wait()
		if n := st.Pages(); n != pages {
			t.Fatalf("%d pages installed, want %d", n, pages)
		}
		for a := uint64(0); a < space; a++ {
			if c, want := st.Get(a), (Cell{Val: a, TS: a%writers + 1}); c != want {
				t.Fatalf("rep %d: cell %d reads %+v, want %+v: a racing page install lost the write", rep, a, c, want)
			}
		}
	}
}
