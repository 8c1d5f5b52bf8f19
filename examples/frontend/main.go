// Example frontend: many concurrent clients over the synchronous batch
// protocol via the single-shard combining service that stack.Open builds. Eight goroutines hammer a
// small hot set of shared counters in AccessBatch windows; the dispatcher
// coalesces their operations into EREW-legal batches (distinct variables
// only) and the combining statistics show how many client ops never became
// protocol requests at all. The service's Stats count what the dispatcher
// did; an obs.Collector set as the protocol's Observer counts what the
// batches cost.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"detshmem/internal/obs"
	"detshmem/internal/shard"
	"detshmem/internal/stack"
)

func main() {
	// q=2, n=3: N=63 modules, M=84 variables, 3 copies, majority 2.
	col := obs.NewCollector()
	st, err := stack.Open(stack.Spec{Degree: 3, Observer: col})
	if err != nil {
		log.Fatal(err)
	}
	svc := st.Service

	// Each client submits a window of operations as one AccessBatch and
	// waits on it — the submit-then-wait pattern that lets the dispatcher
	// see concurrent ops and combine them (fully synchronous clients would
	// serialize into one-op batches).
	const clients, opsPerClient, window, hotVars = 8, 500, 16, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			ops := make([]shard.BatchOp, 0, window)
			drain := func() {
				b, err := svc.AccessBatch(ops)
				if err == nil {
					err = b.Wait()
				}
				if err != nil {
					log.Fatal(err)
				}
				ops = ops[:0]
			}
			for i := 0; i < opsPerClient; i++ {
				v := uint64(rng.Intn(hotVars))
				ops = append(ops, shard.BatchOp{Write: i%2 == 0, Var: v, Val: uint64(c)<<16 | uint64(i)})
				if len(ops) == window {
					drain()
				}
			}
			drain()
		}(c)
	}
	wg.Wait()

	for v := uint64(0); v < hotVars; v++ {
		val, err := svc.Read(v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("var %d: last committed value %d (client %d, op %d)\n",
			v, val, val>>16, val&0xffff)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	s := svc.Stats().Total
	fmt.Printf("\n%d client ops -> %d protocol requests in %d batches (combining rate %.1f%%)\n",
		s.OpsIn, s.RequestsOut, s.Batches, 100*s.CombiningRate())
	fmt.Printf("read sharing %d, write coalescing %d, read-after-write forwards %d\n",
		s.CombinedReads, s.CoalescedWrites, s.ForwardedReads)
	fmt.Printf("protocol cost: %d MPC rounds total, max per-batch Φ = %d\n",
		col.Rounds.Load(), col.MaxPhi.Load())
}
