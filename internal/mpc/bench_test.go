package mpc

import (
	"fmt"
	"math/rand"
	"testing"
)

// The benchmark machine has pram-step's geometry: the N = 16 383 processors
// and modules of q = 2, n = 7, the machine every System there is built with.
// A round lists only the live bids — about 1 490 in an average pram-step
// round, 300 in a tail round — so its cost follows the live count, not the
// processor count.
const benchProcs, benchModules = 16383, 16383

// benchLives are the two live-bid counts every round benchmark runs at.
var benchLives = []int{1490, 300}

// benchList draws live bids from distinct processors in ascending order, at
// random modules.
func benchList(seed int64, live int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	procs := rng.Perm(benchProcs)[:live]
	taken := make([]bool, benchProcs)
	for _, p := range procs {
		taken[p] = true
	}
	bids := make([]int64, 0, live)
	for p, ok := range taken {
		if ok {
			bids = append(bids, Bid(p, int64(rng.Intn(benchModules))))
		}
	}
	return bids
}

func benchRound(b *testing.B, round func([]int64, []bool) int, live int) {
	b.Helper()
	bids := benchList(3, live)
	grant := make([]bool, len(bids))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(bids, grant)
	}
}

// BenchmarkRoundSequential is a round at an average pram-step round's live
// count.
func BenchmarkRoundSequential(b *testing.B) {
	m, err := New(Config{Procs: benchProcs, Modules: benchModules})
	if err != nil {
		b.Fatal(err)
	}
	benchRound(b, m.Round, benchLives[0])
}

// BenchmarkRoundSmall is a tail round's: fewer live bids on the same machine.
func BenchmarkRoundSmall(b *testing.B) {
	m, err := New(Config{Procs: benchProcs, Modules: benchModules})
	if err != nil {
		b.Fatal(err)
	}
	benchRound(b, m.Round, benchLives[1])
}

// BenchmarkFailingWrapper is both rounds through a Failing machine with a
// server's worth of modules down (the first 256), so a round drops a few bids
// and pays the copy that withdraws them.
func BenchmarkFailingWrapper(b *testing.B) {
	for _, live := range benchLives {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			f, err := NewFailing(Config{Procs: benchProcs, Modules: benchModules}, nil)
			if err != nil {
				b.Fatal(err)
			}
			f.FailRange(0, 256)
			benchRound(b, f.Round, live)
		})
	}
}
