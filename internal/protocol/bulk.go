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
// kernel scratch. A PP93 scheme has at most 257 copies (q ≤ 256, since
// gf.MaxBits = 24 and core.New requires n ≥ 3), so a block holds at least 3
// variables.
const (
	bulkMaxVars = 64
	bulkMaxOps  = 1024
)

// AppendCopyAddrs resolves a variable vector in blocks. A variable the
// indexer's torus lift covers (S₁–S₃) is served from its seed row: per copy,
// the module key moved by g^k (core.TorusAction.Key) and the offset kept. The
// others are decoded once per block (per-op CopyAddr re-decodes per copy),
// handed to core's vectorized resolution, and their rows scattered back to
// their places, vars-major. All scratch is stack arrays, so the call
// allocates only what growing the outputs takes.
func (m *coreMapper) AppendCopyAddrs(mods, addrs []uint64, vars []uint64, copies int) ([]uint64, []uint64) {
	if copies < 1 {
		return mods, addrs
	}
	blockVars := min(bulkMaxVars, bulkMaxOps/copies)
	total := len(vars) * copies
	mods, addrs = slices.Grow(mods, total), slices.Grow(addrs, total)
	dm, da := mods[len(mods):][:total], addrs[len(addrs):][:total]
	var mats [bulkMaxVars]pgl.Mat
	var at [bulkMaxVars]int // where each kernel variable's row goes
	var bm [bulkMaxOps]uint64
	var bo [bulkMaxOps]uint32
	msz := uint64(m.s.ModuleSize)
	k1 := uint64(m.s.F.Order) + 1
	idx, tor, stride := m.idx, m.tor, m.s.Copies
	for base := 0; base < len(vars); base += blockVars {
		nk := 0
		for i, v := range vars[base:min(base+blockVars, len(vars))] {
			pos := (base + i) * copies
			if tor != nil {
				if slot, k, ok := tor.lift.TorusLift(v); ok {
					e := tor.act.Exponent(k)
					for c, sc := range tor.rows[slot*stride:][:copies] {
						cs, ct := tor.act.Key(sc.s, sc.t, e)
						mod := uint64(cs)*k1 + uint64(ct+1) // f(s,t) = s·(q^n+1) + t + 1
						dm[pos+c], da[pos+c] = mod, mod*msz+uint64(sc.off)
					}
					continue
				}
			}
			mats[nk], at[nk] = idx.Mat(v), pos
			nk++
		}
		if nk == 0 {
			continue
		}
		t := nk * copies
		m.s.ResolveCopies(mats[:nk], copies, bm[:t], bo[:t])
		for i, pos := range at[:nk] {
			for c := range copies {
				mod := bm[i*copies+c]
				dm[pos+c], da[pos+c] = mod, mod*msz+uint64(bo[i*copies+c])
			}
		}
	}
	return mods[:len(mods)+total], addrs[:len(addrs)+total]
}

// AppendCopyAddrs serves the bulk contract from the compiled table (row
// copies), so callers that batch against an arbitrary Mapper get table reads
// when the mapper happens to be compiled.
func (r *CompiledResolver) AppendCopyAddrs(mods, addrs []uint64, vars []uint64, copies int) ([]uint64, []uint64) {
	n := len(vars) * copies
	mods, addrs = slices.Grow(mods, n), slices.Grow(addrs, n)
	dm, da := mods[len(mods):][:n], addrs[len(addrs):][:n]
	for i, v := range vars {
		for c, a := range r.row(v)[:copies] {
			dm[i*copies+c], da[i*copies+c] = uint64(a>>r.shift), uint64(a)
		}
	}
	return mods[:len(mods)+n], addrs[:len(addrs)+n]
}

var _ BulkMapper = (*coreMapper)(nil)
var _ BulkMapper = (*CompiledResolver)(nil)
