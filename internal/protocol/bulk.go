package protocol

import (
	"slices"

	"detshmem/internal/pgl"
)

// BulkMapper is the optional batched extension of Mapper: resolving a whole
// vector of variables at once lets an implementation amortize per-variable
// setup (index decode, module-set sampling) and run the vectorized GF/PGL
// kernels instead of per-copy scalar algebra. The contract uses builtin
// slice types only, so schemes outside this package implement it without
// importing protocol.
type BulkMapper interface {
	Mapper
	// AppendCopyAddrs appends the (module, addr) of copies [0, copies) of
	// each v in vars — vars-major, copy-minor, so entry i·copies+c is copy c
	// of vars[i] — to mods and addrs, returning the extended slices. The
	// results must equal per-op CopyAddr calls in the same order. copies
	// must be in [0, Copies()].
	AppendCopyAddrs(mods, addrs []uint64, vars []uint64, copies int) ([]uint64, []uint64)
}

// AppendCopyAddrs resolves vars through m's bulk path when m implements
// BulkMapper, falling back to per-op CopyAddr otherwise. Both output slices
// grow append-style from whatever the caller passes (typically buf[:0] of a
// reused buffer, which makes steady-state resolution allocation-free).
func AppendCopyAddrs(m Mapper, mods, addrs []uint64, vars []uint64, copies int) ([]uint64, []uint64) {
	if bm, ok := m.(BulkMapper); ok {
		return bm.AppendCopyAddrs(mods, addrs, vars, copies)
	}
	for _, v := range vars {
		for c := 0; c < copies; c++ {
			mod, addr := m.CopyAddr(v, c)
			mods = append(mods, mod)
			addrs = append(addrs, addr)
		}
	}
	return mods, addrs
}

// Stack scratch bounds for the constructive scheme's bulk path: blocks of up
// to bulkMaxVars variables, shrunk so a block's copies fit the bulkMaxOps
// output scratch when the replication factor is large.
const (
	bulkMaxVars = 64
	bulkMaxOps  = 1024
)

// AppendCopyAddrs resolves a variable vector through the batched Section 4
// kernels: each block decodes the representatives once (per-op CopyAddr
// re-decodes per copy) and hands them to core's vectorized resolution. All
// scratch is stack arrays, so the call allocates only what append itself
// grows.
func (m *coreMapper) AppendCopyAddrs(mods, addrs []uint64, vars []uint64, copies int) ([]uint64, []uint64) {
	if copies < 1 {
		return mods, addrs
	}
	if copies > bulkMaxOps {
		// Replication beyond the scratch budget (no practical scheme: q+1 >
		// 1024 needs q ≥ 1024, far past the table-bit budget). Decode once,
		// resolve scalar per copy.
		for _, v := range vars {
			a := m.idx.Mat(v)
			for c := 0; c < copies; c++ {
				mod, off := m.s.CopyLocation(a, c)
				mods = append(mods, mod)
				addrs = append(addrs, mod*uint64(m.s.ModuleSize)+uint64(off))
			}
		}
		return mods, addrs
	}
	blockVars := bulkMaxVars
	if blockVars*copies > bulkMaxOps {
		blockVars = bulkMaxOps / copies
	}
	var mats [bulkMaxVars]pgl.Mat
	var bm [bulkMaxOps]uint64
	var bo [bulkMaxOps]uint32
	var ba [bulkMaxOps]uint64
	msz := uint64(m.s.ModuleSize)
	idx := m.idx
	for base := 0; base < len(vars); base += blockVars {
		n := len(vars) - base
		if n > blockVars {
			n = blockVars
		}
		for i := 0; i < n; i++ {
			mats[i] = idx.Mat(vars[base+i])
		}
		t := n * copies
		m.s.ResolveCopies(mats[:n], copies, bm[:t], bo[:t])
		// Assemble addresses in scratch and bulk-append both outputs: two
		// memmoves per block instead of per-element appends, whose bounds
		// bookkeeping would otherwise rival the resolution kernel itself.
		for k := 0; k < t; k++ {
			ba[k] = bm[k]*msz + uint64(bo[k])
		}
		mods = append(mods, bm[:t]...)
		addrs = append(addrs, ba[:t]...)
	}
	return mods, addrs
}

// AppendCopyAddrs serves the bulk contract from the compiled table (row
// copies), so callers that batch against an arbitrary Mapper get table reads
// when the mapper happens to be compiled.
func (r *CompiledResolver) AppendCopyAddrs(mods, addrs []uint64, vars []uint64, copies int) ([]uint64, []uint64) {
	n := len(vars) * copies
	mods, addrs = slices.Grow(mods, n), slices.Grow(addrs, n)
	dm, da := mods[len(mods):][:n], addrs[len(addrs):][:n]
	for i, v := range vars {
		for c, cp := range r.row(v)[:copies] {
			dm[i*copies+c], da[i*copies+c] = uint64(cp.module()), cp.addr()
		}
	}
	return mods[:len(mods)+n], addrs[:len(addrs)+n]
}

var _ BulkMapper = (*coreMapper)(nil)
var _ BulkMapper = (*CompiledResolver)(nil)
