package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"detshmem/internal/core"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

// E23 measures the two address-resolution paths across the large-(q, n)
// ladder the batched Section 4 kernels open: for each (q, n) cell each path
// resolves the same Zipf stream of variables into full copy rows, against the
// live per-op CopyAddr baseline.
//
//   - per-op: scalar CopyAddr per copy — the pre-batching hot path;
//   - compiled: the dense table (skipped, with its hypothetical size
//     reported, when protocol.TableFits says the table is too large —
//     exactly the regime the computed path exists for);
//   - computed: the vectorized bulk kernels (protocol.BulkMapper), zero
//     resident table.
//
// Cold (first-pass) and steady-state costs are reported separately; steady
// state is what a long-running service sees. Resident bytes are printed per
// path, so the table-memory vs recompute-cost tradeoff behind the size rule
// is a measured table rather than a design argument.
func E23(w io.Writer, o Options) error {
	type cell struct {
		m, n int
		big  bool // skip the O(56M)-byte enumerated indexer: build compact directly
	}
	cells := []cell{{1, 7, false}, {1, 9, true}, {2, 4, false}, {2, 5, true}, {3, 3, false}}
	ops := 200_000
	if o.Quick {
		cells = []cell{{1, 5, false}, {2, 3, false}}
		ops = 20_000
	}
	strategies := []string{"compiled", "computed"}
	if o.Resolver != "" {
		ok := false
		for _, s := range strategies {
			if s == o.Resolver {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("e23: unknown resolver strategy %q (want compiled or computed)", o.Resolver)
		}
		strategies = []string{o.Resolver}
	}

	type row struct {
		strategy      string
		skipped       bool // table too large to hold; residentBytes is its would-be size
		buildMs       float64
		residentBytes uint64
		coldNsPerVar  float64
		nsPerVar      float64
		speedup       float64 // against the per-op row
	}

	fprintf(w, "E23 Address resolution at large (q, n): strategy frontier (%d-var Zipf stream per cell, s=1.1)\n", ops)
	fprintf(w, "%-10s %10s %11s %-9s %9s %12s %10s %10s %8s\n",
		"cell", "M", "entries", "strategy", "build ms", "resident B", "cold ns", "ns/var", "speedup")

	const block = 256
	var sink uint64
	for _, c := range cells {
		s, err := core.New(c.m, c.n)
		if err != nil {
			return err
		}
		var idx core.Indexer
		idxStart := time.Now()
		if c.big {
			idx = core.NewCompactIndexer(s)
		} else {
			if idx, err = s.NewIndexer(); err != nil {
				return err
			}
		}
		idxMs := float64(time.Since(idxStart).Nanoseconds()) / 1e6
		var idxBytes uint64
		if b, ok := idx.(interface{ Bytes() uint64 }); ok {
			idxBytes = b.Bytes()
		}
		mp := protocol.NewCoreMapper(s, idx)
		copies := mp.Copies()
		entries := s.NumVariables * uint64(copies)
		label := fmt.Sprintf("q%d-n%d", s.Q, c.n)
		fprintf(w, "%-10s %10d %11d %-9s %9.0f %12d  (indexer: built once per cell, shared by every strategy)\n",
			label, s.NumVariables, entries, "indexer", idxMs, idxBytes)

		stream := workload.Zipf(o.Rng(), s.NumVariables, ops, 1.1)
		bm := make([]uint64, 0, block*copies)
		ba := make([]uint64, 0, block*copies)

		// measure times one cold pass and reps steady-state passes over the
		// stream, returning (cold, median-steady) ns per variable. The
		// up-front collection keeps one strategy's garbage (and the previous
		// cell's dropped indexer) from billing GC assists to the next.
		measure := func(resolve func([]uint64)) (float64, float64) {
			runtime.GC()
			start := time.Now()
			resolve(stream)
			cold := float64(time.Since(start).Nanoseconds()) / float64(ops)
			reps := 5
			if o.Quick {
				reps = 2
			}
			els := make([]int64, 0, reps)
			for r := 0; r < reps; r++ {
				start = time.Now()
				resolve(stream)
				els = append(els, time.Since(start).Nanoseconds())
			}
			sort.Slice(els, func(i, j int) bool { return els[i] < els[j] })
			return cold, float64(els[len(els)/2]) / float64(ops)
		}
		bulkThrough := func(src protocol.Mapper) func([]uint64) {
			return func(vars []uint64) {
				for base := 0; base < len(vars); base += block {
					end := base + block
					if end > len(vars) {
						end = len(vars)
					}
					bm, ba = protocol.AppendCopyAddrs(src, bm[:0], ba[:0], vars[base:end], copies)
					sink += bm[0] + ba[len(ba)-1]
				}
			}
		}
		emit := func(r row) {
			if r.skipped {
				fprintf(w, "%-10s %10d %11d %-9s %9s %12d  (table too large to hold: the size rule resolves this cell computed)\n",
					label, s.NumVariables, entries, r.strategy, "-", r.residentBytes)
				return
			}
			fprintf(w, "%-10s %10d %11d %-9s %9.0f %12d %10.1f %10.1f %7.2fx\n",
				label, s.NumVariables, entries, r.strategy, r.buildMs, r.residentBytes,
				r.coldNsPerVar, r.nsPerVar, r.speedup)
		}

		// The live per-op baseline every strategy's speedup is against.
		perOpCold, perOpNs := measure(func(vars []uint64) {
			for _, v := range vars {
				for cc := 0; cc < copies; cc++ {
					mod, addr := mp.CopyAddr(v, cc)
					sink += mod + addr
				}
			}
		})
		emit(row{strategy: "per-op", coldNsPerVar: perOpCold, nsPerVar: perOpNs, speedup: 1})

		for _, strat := range strategies {
			switch strat {
			case "computed":
				cold, ns := measure(bulkThrough(mp))
				emit(row{strategy: strat, coldNsPerVar: cold, nsPerVar: ns, speedup: perOpNs / ns})
			case "compiled":
				if !protocol.TableFits(mp) {
					emit(row{strategy: strat, skipped: true, residentBytes: entries * 8})
					continue
				}
				buildStart := time.Now()
				r, err := protocol.CompileMapper(mp, protocol.CompileOptions{})
				if err != nil {
					return err
				}
				buildMs := float64(time.Since(buildStart).Nanoseconds()) / 1e6
				cold, ns := measure(bulkThrough(r))
				emit(row{strategy: strat, buildMs: buildMs, residentBytes: r.ResidentBytes(),
					coldNsPerVar: cold, nsPerVar: ns, speedup: perOpNs / ns})
			}
		}

		// Equivalence spot-check: every strategy must resolve like per-op.
		check := stream[:16]
		cm, ca := protocol.AppendCopyAddrs(mp, nil, nil, check, copies)
		for i, v := range check {
			for cc := 0; cc < copies; cc++ {
				wm, wa := mp.CopyAddr(v, cc)
				if cm[i*copies+cc] != wm || ca[i*copies+cc] != wa {
					return fmt.Errorf("e23 %s: bulk resolution of var %d copy %d diverges from per-op", label, v, cc)
				}
			}
		}
	}
	_ = sink
	fprintf(w, "  (speedup is steady-state per-op ns over the strategy's ns per variable; cold is the\n")
	fprintf(w, "   first pass. Resident bytes exclude the per-cell indexer, shown once per cell; a\n")
	fprintf(w, "   skipped compiled row reports the table that would have had to be held.)\n\n")
	return nil
}
