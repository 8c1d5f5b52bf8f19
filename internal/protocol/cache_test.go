package protocol

import (
	"math/rand"
	"testing"

	"detshmem/internal/workload"
)

// TestAddressCacheEquivalence: with and without the compiled address table,
// a long mixed batch sequence produces identical values and identical
// metrics.
func TestAddressCacheEquivalence(t *testing.T) {
	plain := newSystem(t, 1, 5, Config{})
	cached := newSystem(t, 1, 5, Config{Resolver: compileTable(t, plain.Mapper)})
	rng := rand.New(rand.NewSource(33))
	M := plain.Mapper.NumVars()
	for batch := 0; batch < 15; batch++ {
		vars := workload.DistinctRandom(rng, M, 100+batch)
		var reqs []Request
		for i, v := range vars {
			op := Read
			if i%2 == 0 {
				op = Write
			}
			reqs = append(reqs, Request{Var: v, Op: op, Value: uint64(i * batch)})
		}
		r1, err := plain.Access(reqs)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := cached.Access(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1.Values {
			if r1.Values[i] != r2.Values[i] {
				t.Fatalf("batch %d: values differ at %d", batch, i)
			}
		}
		if r1.Metrics.TotalRounds != r2.Metrics.TotalRounds ||
			r1.Metrics.MaxIterations != r2.Metrics.MaxIterations ||
			r1.Metrics.CopyAccesses != r2.Metrics.CopyAccesses {
			t.Fatalf("batch %d: metrics differ: %+v vs %+v", batch, r1.Metrics, r2.Metrics)
		}
	}
}

// TestMachineReuseCostDelta: InterconnectCost must be the per-batch delta,
// not cumulative, when the machine is reused across batches.
func TestMachineReuseCostDelta(t *testing.T) {
	sys := newSystem(t, 1, 3, Config{})
	vars := []uint64{1, 2, 3, 4, 5, 6}
	vals := make([]uint64, len(vars))
	m1p, err := sys.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	// WriteBatch reuses its Metrics across calls on the same system; snapshot
	// each batch's metrics before issuing the next.
	m1 := *m1p
	m2p, err := sys.WriteBatch(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	m2 := *m2p
	if m1.InterconnectCost != uint64(m1.TotalRounds) {
		t.Fatalf("first batch cost %d != rounds %d", m1.InterconnectCost, m1.TotalRounds)
	}
	if m2.InterconnectCost != uint64(m2.TotalRounds) {
		t.Fatalf("second batch cost %d != rounds %d (cumulative leak?)", m2.InterconnectCost, m2.TotalRounds)
	}
	// A smaller batch reuses the machine with idle tail processors; the
	// delta must survive the geometry mismatch.
	m3, err := sys.WriteBatch(vars[:3], vals[:3])
	if err != nil {
		t.Fatal(err)
	}
	if m3.InterconnectCost != uint64(m3.TotalRounds) {
		t.Fatalf("resized batch cost %d != rounds %d", m3.InterconnectCost, m3.TotalRounds)
	}
}
