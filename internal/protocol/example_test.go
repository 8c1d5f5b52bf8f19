package protocol_test

import (
	"fmt"

	"detshmem/internal/core"
	"detshmem/internal/protocol"
)

// Example shows the three-line path from scheme to shared memory: build the
// organization, wrap it in the access protocol, and issue synchronous
// batches of distinct-variable requests.
func Example() {
	scheme, err := core.New(1, 5)
	if err != nil {
		panic(err)
	}
	idx, err := scheme.NewIndexer()
	if err != nil {
		panic(err)
	}
	sys, err := protocol.NewSystem(scheme, idx, protocol.Config{})
	if err != nil {
		panic(err)
	}
	vars := []uint64{10, 20, 30}
	if _, err := sys.WriteBatch(vars, []uint64{100, 200, 300}); err != nil {
		panic(err)
	}
	vals, met, err := sys.ReadBatch(vars)
	if err != nil {
		panic(err)
	}
	// Three requests fit in one phase; a batch of N would play q+1.
	phases := "phases"
	if met.Phases == 1 {
		phases = "phase"
	}
	fmt.Println(vals, "in", met.Phases, phases)
	// Output:
	// [100 200 300] in 1 phase
}
