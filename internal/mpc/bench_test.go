package mpc

import (
	"math/rand"
	"testing"
)

func benchRound(b *testing.B, procs, modules int) {
	b.Helper()
	m, err := New(Config{Procs: procs, Modules: modules})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	reqs := make([]int64, procs)
	grant := make([]bool, procs)
	for p := range reqs {
		if rng.Intn(4) == 0 {
			reqs[p] = Idle
		} else {
			reqs[p] = int64(rng.Intn(modules))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Round(reqs, grant)
	}
}

func BenchmarkRoundSequential(b *testing.B) { benchRound(b, 16383, 16383) }
func BenchmarkRoundSmall(b *testing.B)      { benchRound(b, 1023, 1023) }
func BenchmarkFailingWrapper(b *testing.B) {
	f, err := NewFailing(Config{Procs: 1023, Modules: 1023}, []uint64{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	reqs := make([]int64, 1023)
	grant := make([]bool, 1023)
	for p := range reqs {
		reqs[p] = int64(rng.Intn(1023))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Round(reqs, grant)
	}
}
