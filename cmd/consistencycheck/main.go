// Command consistencycheck certifies (or refutes) recorded client traces
// against the memory system's consistency contracts, offline and black-box:
// the input is only what each client submitted and what each read returned.
//
// Usage:
//
//	consistencycheck [-mode auto|pram|per-variable|both] [-q] FILE...
//
// Each FILE is JSON in either shape internal/consistency reads: a trace set
// ({"runs": [...]}, as cmd/netcluster's drills write it) or a single run.
// "-" reads stdin.
//
// With -mode auto (the default) each run is checked under the modes its
// recorded contract requires: total-order runs must satisfy both PRAM and
// per-variable consistency, per-variable runs only the latter. The other
// modes force one (or both) checks regardless of contract — useful to
// demonstrate that a sharded run is per-variable consistent yet not PRAM.
//
// For every violated run the checker prints a minimal counterexample: the
// shortest operation cycle (with the constraint that forced each edge) or
// the shortest chain forcing a stale read. Exit status: 0 when every run
// certifies, 1 when any run is violated, 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"detshmem/internal/consistency"
)

func main() {
	var (
		modeFlag = flag.String("mode", "auto", "auto, pram, per-variable, or both")
		quiet    = flag.Bool("q", false, "print only violated runs and the final verdict")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: consistencycheck [-mode auto|pram|per-variable|both] [-q] FILE...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	modesFor := func(c consistency.Contract) []consistency.Mode {
		switch *modeFlag {
		case "auto":
			return consistency.ModesFor(c)
		case "pram":
			return []consistency.Mode{consistency.ModePRAM}
		case "per-variable":
			return []consistency.Mode{consistency.ModePerVariable}
		case "both":
			return []consistency.Mode{consistency.ModePRAM, consistency.ModePerVariable}
		default:
			fmt.Fprintf(os.Stderr, "consistencycheck: unknown -mode %q\n", *modeFlag)
			os.Exit(2)
			return nil
		}
	}

	runs, violated := 0, 0
	for _, path := range flag.Args() {
		ts, err := readFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "consistencycheck: %s: %v\n", path, err)
			os.Exit(2)
		}
		for _, run := range ts.Runs {
			runs++
			contract := run.Contract
			if contract == "" {
				contract = consistency.ContractTotalOrder
			}
			bad := false
			for _, mode := range modesFor(contract) {
				rep := consistency.Check(run.Clients, mode)
				if rep.OK {
					if !*quiet {
						fmt.Printf("certified  %-30s %-14s %-13s %d ops, %d failed dropped, %d resurrected\n",
							label(path, run.Label), contract, mode, rep.OpsChecked, rep.DroppedFailed, rep.Resurrected)
					}
					continue
				}
				bad = true
				v := rep.First()
				fmt.Printf("VIOLATED   %-30s %-14s %-13s %s\n", label(path, run.Label), contract, mode, v.Kind)
				fmt.Printf("  %s\n", v.Message)
				printCounterexample(v)
			}
			if bad {
				violated++
			}
		}
	}
	if violated > 0 {
		fmt.Printf("%d of %d runs violated their contract\n", violated, runs)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("all %d runs certified\n", runs)
	}
}

func label(path, run string) string {
	if run == "" {
		return path
	}
	return run
}

// printCounterexample renders the violation's minimal witness: the ops in
// order, each edge annotated with the constraint that forced it.
func printCounterexample(v *consistency.Violation) {
	for i, op := range v.Ops {
		why := ""
		if i < len(v.Why) {
			why = "   [" + v.Why[i] + "]"
		}
		fmt.Printf("    client %d op %d: %s%s\n", op.Client, op.Index, op.Op, why)
	}
}

func readFile(path string) (*consistency.TraceSet, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return consistency.ReadTraceSet(r)
}
