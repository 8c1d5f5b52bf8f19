// Command mpcrun executes an ad-hoc workload batch on the MPC under a chosen
// memory organization and prints the access metrics — a workbench for poking
// at the protocol.
//
// Usage:
//
//	mpcrun -n 5 -batch 1023 -workload random|stride|gamma -op read|write \
//	       [-scheme pp|mv|single|uw] [-seed S] [-trace] [-tracejson FILE]
//
// The scheme is always q=2; -n is its extension degree, and -batch is at most
// N = 4^n − 1 (0 means N). An out-of-range -n or -batch, or an unknown
// -workload, -op or -scheme, is a usage error: mpcrun exits 2 before it
// builds anything.
//
// -tracejson captures every MPC round through the obs tracer and writes the
// machine-readable round trajectory (requests, grants, contention
// histogram) plus its totals, cross-checked against the batch's protocol
// metrics.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"

	"detshmem/internal/baseline"
	"detshmem/internal/core"
	"detshmem/internal/gf"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
	"detshmem/internal/workload"
)

func main() {
	var (
		nFlag    = flag.Int("n", 5, "extension degree (q=2)")
		batch    = flag.Int("batch", 0, "batch size (0 = full N)")
		wl       = flag.String("workload", "random", "random | stride | gamma")
		op       = flag.String("op", "write", "read | write")
		scheme   = flag.String("scheme", "pp", "pp | mv | single | uw")
		seed     = flag.Int64("seed", 1993, "workload seed")
		trace    = flag.Bool("trace", false, "print per-iteration live counts")
		traceOut = flag.String("tracejson", "", "write the per-round JSON trajectory here")
	)
	flag.Parse()
	if err := checkFlags(*nFlag, *batch, *wl, *op, *scheme); err != nil {
		fmt.Fprintf(os.Stderr, "mpcrun: %v\n", err)
		os.Exit(2)
	}

	s, err := core.New(1, *nFlag)
	fatal(err)
	idx, err := s.NewIndexer()
	fatal(err)

	var mapper protocol.Mapper
	switch *scheme {
	case "pp":
		mapper = protocol.NewCoreMapper(s, idx)
	case "mv":
		mapper, err = baseline.NewMV(s.NumModules, s.NumVariables, 2)
	case "single":
		mapper, err = baseline.NewSingleCopy(s.NumModules, s.NumVariables, baseline.PlaceHashed, 7)
	case "uw":
		c := 1
		for (uint64(1) << uint(2*c)) < s.NumModules {
			c++
		}
		mapper, err = baseline.NewUW(s.NumModules, s.NumVariables, c, 7)
	}
	fatal(err)

	size := *batch
	if size == 0 {
		size = int(s.NumModules)
	}
	var vars []uint64
	switch *wl {
	case "random":
		vars = workload.DistinctRandom(rand.New(rand.NewSource(*seed)), s.NumVariables, size)
	case "stride":
		vars = workload.Stride(s.NumVariables, size, s.NumModules)
	case "gamma":
		vars, err = workload.GammaConcentrated(s, idx, 0, size)
		fatal(err)
	}

	var tracer *obs.Tracer
	cfg := protocol.Config{TraceLive: *trace}
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		cfg.Recorder = tracer
	}
	sys, err := protocol.NewGenericSystem(mapper, cfg)
	fatal(err)

	reqs := make([]protocol.Request, len(vars))
	theOp := protocol.Write
	if *op == "read" {
		theOp = protocol.Read
	}
	for i, v := range vars {
		reqs[i] = protocol.Request{Var: v, Op: theOp, Value: uint64(i)}
	}
	res, err := sys.Access(reqs)
	fatal(err)

	m := res.Metrics
	fmt.Printf("scheme=%s workload=%s op=%s N=%d M=%d batch=%d\n",
		mapper.Name(), *wl, *op, mapper.NumModules(), mapper.NumVars(), len(vars))
	fmt.Printf("phases=%d Φ=%d totalRounds=%d copyAccesses=%d\n",
		m.Phases, m.MaxIterations, m.TotalRounds, m.CopyAccesses)
	fmt.Printf("perPhase=%v\n", m.PhaseIterations)
	if *trace {
		for p, tr := range m.LiveTrace {
			fmt.Printf("phase %d live: %v\n", p, tr)
		}
	}
	if tracer != nil {
		totals := tracer.Totals()
		if totals.Rounds != uint64(m.TotalRounds) || totals.Granted != uint64(m.GrantedBids) {
			fatal(fmt.Errorf("trace totals diverge from metrics: traced rounds=%d granted=%d, metrics rounds=%d granted=%d",
				totals.Rounds, totals.Granted, m.TotalRounds, m.GrantedBids))
		}
		f, err := os.Create(*traceOut)
		fatal(err)
		err = tracer.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fatal(err)
		fmt.Printf("trace: %d rounds -> %s (consistent with batch metrics: granted=%d)\n",
			totals.Rounds, *traceOut, totals.Granted)
	}
}

// checkFlags refuses a flag combination mpcrun would otherwise run as
// something else: an unknown scheme, workload or op, or a batch outside
// [0, N] for the q=2 scheme of degree n.
func checkFlags(n, batch int, wl, op, scheme string) error {
	if n < 3 || n > gf.MaxBits {
		return fmt.Errorf("-n %d out of range [3,%d]", n, gf.MaxBits)
	}
	if modules := uint64(1)<<(2*n) - 1; batch < 0 || uint64(batch) > modules {
		return fmt.Errorf("-batch %d out of range [0,%d] for -n %d (0 means N)", batch, modules, n)
	}
	for _, f := range []struct {
		name, val string
		known     []string
	}{
		{"workload", wl, []string{"random", "stride", "gamma"}},
		{"op", op, []string{"read", "write"}},
		{"scheme", scheme, []string{"pp", "mv", "single", "uw"}},
	} {
		if !slices.Contains(f.known, f.val) {
			return fmt.Errorf("unknown -%s %q; known: %s", f.name, f.val, strings.Join(f.known, ", "))
		}
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
