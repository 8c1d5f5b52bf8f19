package main

import (
	"math/rand"

	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// Written values carry the variable they were written to in the high bits,
// so a read can be checked in O(1): it returns 0 (never written) or a value
// tagged with the variable it read. Below the tag sit the writing client
// and that client's write counter, which makes every written value unique —
// the data-uniqueness precondition of the trace checker.
const (
	tagShift    = 36
	clientShift = 32
)

func taggedValue(v uint64, client int, seq uint64) uint64 {
	return v<<tagShift | uint64(client)<<clientShift | seq
}

// valueMatches reports whether a successful read of v may have returned val.
func valueMatches(v, val uint64) bool { return val == 0 || val>>tagShift == v }

// faultStream is the ClientRNG stream index that draws fault ranges; client
// streams use indices 0 … clients−1.
const faultStream = 1 << 20

// generator produces the workload's op streams from the seed. Each client
// has its own workload.ClientRNG stream, so the streams are mutually
// independent and a seed reproduces them byte for byte; the service under
// test receives only the generated ops.
type generator struct {
	sp     *workloadSpec
	m      uint64 // number of variables
	rngs   []*rand.Rand
	writes []uint64 // per-client write counter
	faults *rand.Rand
	sum    uint64 // FNV-1a, by 64-bit words, over every op and fault range generated so far
}

func newGenerator(sp *workloadSpec, seed int64, m uint64) *generator {
	g := &generator{
		sp: sp, m: m,
		writes: make([]uint64, sp.clients),
		faults: workload.ClientRNG(seed, faultStream),
		sum:    14695981039346656037,
	}
	for c := 0; c < sp.clients; c++ {
		g.rngs = append(g.rngs, workload.ClientRNG(seed, c))
	}
	return g
}

// fill overwrites ops, whose length is a multiple of the window, with the
// next ops of client's stream, drawing variables as tr says.
func (g *generator) fill(client int, ops []shard.BatchOp, tr traffic) {
	rng := g.rngs[client]
	var vars []uint64
	switch tr {
	case hotspot:
		vars = workload.HotSpot(rng, g.m, len(ops), hotVars, hotProb)
	case zipf:
		vars = workload.Zipf(rng, g.m, len(ops), zipfExponent)
	case distinct:
		vars = make([]uint64, 0, len(ops))
		for len(vars) < len(ops) {
			vars = append(vars, workload.DistinctRandom(rng, g.m, g.sp.window)...)
		}
	default:
		vars = make([]uint64, len(ops))
		for i := range vars {
			vars[i] = uint64(rng.Int63n(int64(g.m)))
		}
	}
	for i, v := range vars {
		op := shard.BatchOp{Var: v}
		if rng.Intn(1000) < writePerMille {
			g.writes[client]++
			op.Write = true
			op.Val = taggedValue(v, client, g.writes[client])
		}
		ops[i] = op
		g.mix(op.Var)
		g.mix(op.Val) // 0 marks a read
	}
}

// faultRange draws the next contiguous range of a quarter of the n modules.
func (g *generator) faultRange(n uint64) (lo, hi uint64) {
	span := n / 4
	lo = uint64(g.faults.Int63n(int64(n - span + 1)))
	g.mix(lo)
	return lo, lo + span
}

// digest identifies everything generated so far; equal seeds give equal
// digests and the determinism test pins that.
func (g *generator) digest() uint64 { return g.sum }

func (g *generator) mix(word uint64) { g.sum = (g.sum ^ word) * 1099511628211 }
