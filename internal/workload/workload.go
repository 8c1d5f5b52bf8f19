// Package workload generates request batches for the experiments: uniform
// random distinct sets, structured strides, graph-aware adversarial sets
// (variables concentrated on few modules, and the subfield-structured sets
// that make the Theorem 4 expansion bound tight for composite n), plus
// skewed operation streams with repeats (hot-spot, Zipf) for the combining
// frontend's concurrent traffic.
package workload

import (
	"fmt"
	"math/rand"

	"detshmem/internal/core"
)

// ClientSeed derives a decorrelated RNG seed for one client stream from a
// base seed: the splitmix64 finalizer over (base, client), so every client
// gets an independent-looking stream, the same (base, client) pair always
// yields the same stream (deterministic sharded runs replay exactly), and
// nearby client ids do not produce correlated low bits the way the old
// base+client*prime recipe could.
func ClientSeed(base int64, client int) int64 {
	x := uint64(base)*0x9e3779b97f4a7c15 + uint64(client) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// ClientRNG returns the deterministic per-client RNG for a base seed.
func ClientRNG(base int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(ClientSeed(base, client)))
}

// HotSpot draws k variable indices (repeats allowed, unlike the distinct
// batch generators above) where each draw falls into a small hot set
// {0, …, hot−1} with probability p and is uniform over [0, m) otherwise.
// This is the concurrent-traffic shape where the combining frontend wins:
// many clients repeatedly touching the same few variables.
func HotSpot(rng *rand.Rand, m uint64, k int, hot uint64, p float64) []uint64 {
	if hot == 0 || hot > m {
		hot = m
	}
	out := make([]uint64, k)
	for i := range out {
		if rng.Float64() < p {
			out[i] = uint64(rng.Int63n(int64(hot)))
		} else {
			out[i] = uint64(rng.Int63n(int64(m)))
		}
	}
	return out
}

// Zipf draws k variable indices (repeats allowed) from a Zipf distribution
// with exponent s > 1 over [0, m) — the classic skewed-popularity stream.
func Zipf(rng *rand.Rand, m uint64, k int, s float64) []uint64 {
	z := rand.NewZipf(rng, s, 1, m-1)
	out := make([]uint64, k)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

// DistinctRandom draws k distinct variables uniformly from [0, m).
func DistinctRandom(rng *rand.Rand, m uint64, k int) []uint64 {
	if uint64(k) > m {
		k = int(m)
	}
	// For small k relative to m, rejection sampling; otherwise a partial
	// Fisher–Yates over a materialized range.
	if uint64(k)*4 < m {
		seen := make(map[uint64]bool, k)
		out := make([]uint64, 0, k)
		for len(out) < k {
			v := uint64(rng.Int63n(int64(m)))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	all := make([]uint64, m)
	for i := range all {
		all[i] = uint64(i)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:k]
}

// RandomFaults draws k distinct module ids uniformly from [0, n): the
// random crash-fault sets the fault-matrix tests (protocol.TestFaultMatrix)
// inject. It is DistinctRandom over the module space rather than the
// variable space.
func RandomFaults(rng *rand.Rand, n uint64, k int) []uint64 {
	return DistinctRandom(rng, n, k)
}

// Stride returns k distinct variables spaced by stride (mod m), a structured
// deterministic pattern. When the stride's cycle mod m is shorter than k
// (gcd(stride, m) > m/k), the walk hops to the next unvisited offset and
// continues, so the result is always k distinct values for k <= m.
func Stride(m uint64, k int, stride uint64) []uint64 {
	if uint64(k) > m {
		k = int(m)
	}
	out := make([]uint64, 0, k)
	seen := make(map[uint64]bool, k)
	for o := uint64(0); len(out) < k && o < m; o++ {
		for v := o; !seen[v] && len(out) < k; v = (v + stride) % m {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// GammaConcentrated returns up to k distinct variables drawn from
// Γ(u_start), Γ(u_start+1), … — the locality adversary for the PP scheme:
// all returned variables keep one copy inside a small window of modules.
// The indexer must support inversion.
func GammaConcentrated(s *core.Scheme, idx core.Indexer, startModule uint64, k int) ([]uint64, error) {
	inv, ok := idx.(core.Inverter)
	if !ok {
		return nil, fmt.Errorf("workload: indexer %T cannot invert cosets", idx)
	}
	out := make([]uint64, 0, k)
	seen := make(map[uint64]bool, k)
	for j := startModule; len(out) < k; j++ {
		if j >= s.NumModules {
			return out, nil
		}
		for off := uint32(0); off < s.ModuleSize && len(out) < k; off++ {
			i, found := inv.Index(s.ModuleVarMat(j, off))
			if !found {
				return nil, fmt.Errorf("workload: module %d offset %d has unindexed variable", j, off)
			}
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out, nil
}

// SubfieldSet returns the variables whose cosets contain a matrix with all
// entries in the subfield F_{q^d} (d must divide n, d >= 3 so PGL₂(q^d)
// properly contains H₀). These sets inherit the structure of the embedded
// copy of PGL₂(q^d) and are the natural candidates for the tight expansion
// sets the paper mentions exist for composite n.
func SubfieldSet(s *core.Scheme, idx core.Indexer, d int) ([]uint64, error) {
	if d < 3 || s.Deg%d != 0 {
		return nil, fmt.Errorf("workload: subfield degree %d must divide n=%d and be >= 3", d, s.Deg)
	}
	inv, ok := idx.(core.Inverter)
	if !ok {
		return nil, fmt.Errorf("workload: indexer %T cannot invert cosets", idx)
	}
	f := s.F
	// Enumerate F_{q^d} ⊂ F_{q^n}: zero plus the cyclic subgroup of order
	// q^d − 1 generated by γ^{(q^n−1)/(q^d−1)}.
	sub := []uint32{0}
	step := (int(f.Order) - 1) / ((1 << uint(d*logQ(s.Q))) - 1)
	for i := 0; i < (1<<uint(d*logQ(s.Q)))-1; i++ {
		sub = append(sub, f.Exp(i*step))
	}
	seen := make(map[uint64]bool)
	var out []uint64
	for _, a := range sub {
		for _, b := range sub {
			for _, c := range sub {
				for _, dd := range sub {
					m, err := s.G.Make(a, b, c, dd)
					if err != nil {
						continue
					}
					i, found := inv.Index(m)
					if !found {
						return nil, fmt.Errorf("workload: subfield matrix not indexed")
					}
					if !seen[i] {
						seen[i] = true
						out = append(out, i)
					}
				}
			}
		}
	}
	return out, nil
}

func logQ(q uint32) int {
	l := 0
	for q > 1 {
		q >>= 1
		l++
	}
	return l
}
