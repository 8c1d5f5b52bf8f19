// faulttolerance: the majority rule the scheme borrows from Thomas'
// consensus protocol masks module failures for free. With q = 2 every
// variable has 3 copies in 3 distinct modules and needs only 2 of them, so
// one crashed module is invisible — and by Theorem 2, crashing any TWO
// modules can strand at most one variable in the whole machine.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"errors"
	"fmt"
	"log"

	"detshmem/internal/core"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

func main() {
	scheme, err := core.New(1, 5) // N = 1023, M = 5456
	if err != nil {
		log.Fatal(err)
	}
	idx, err := scheme.NewIndexer()
	if err != nil {
		log.Fatal(err)
	}

	newSys := func(failed []uint64) *protocol.System {
		sys, err := protocol.NewSystem(scheme, idx, protocol.Config{
			NewMachine: func(cfg mpc.Config) (protocol.Machine, error) {
				return mpc.NewFailing(cfg, failed)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}

	n := int(scheme.NumModules)
	vars := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range vars {
		vars[i] = uint64(i)
		vals[i] = uint64(i) + 1000
	}

	// One failed module: the full-machine batch sails through.
	sys := newSys([]uint64{511})
	if _, err := sys.WriteBatch(vars, vals); err != nil {
		log.Fatalf("write with one failed module: %v", err)
	}
	got, _, err := sys.ReadBatch(vars)
	if err != nil {
		log.Fatalf("read with one failed module: %v", err)
	}
	for i := range got {
		if got[i] != vals[i] {
			log.Fatalf("mismatch at %d", i)
		}
	}
	fmt.Printf("module 511 crashed: all %d variables still written and read correctly\n", n)

	// Kill every module holding variable 42's copies: exactly that variable
	// is stranded, everyone else survives.
	victim := uint64(42)
	failed := scheme.VarModules(nil, idx.Mat(victim))
	fmt.Printf("\nnow crashing variable %d's own modules %v…\n", victim, failed)
	sys = newSys(failed)
	met, err := sys.WriteBatch(vars, vals)
	if !errors.Is(err, protocol.ErrIncomplete) {
		log.Fatalf("expected ErrIncomplete, got %v", err)
	}
	fmt.Printf("protocol reports %d stranded request(s): ", len(met.Unfinished))
	for _, u := range met.Unfinished {
		fmt.Printf("variable %d ", vars[u])
	}
	fmt.Println()
	fmt.Println("(three crashed modules strand only the variables whose full copy set")
	fmt.Println(" they cover — Theorem 2 guarantees different variables share at most")
	fmt.Println(" one module, so such coincidences are vanishingly rare)")
}
