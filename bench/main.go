// Command bench is the repository's benchmark: six fixed workloads driven in
// a closed loop from one process, each reporting what a client sees
// (throughput, window latency, set-up time, memory), what the paper counts
// (MPC rounds per op) and, on a traced run, where each layer's time goes.
// README.md describes the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema  string    `json:"schema"`
	Results []*result `json:"results"`
}

const resultSchema = "detshmem-bench/1"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or \"all\" for every workload untraced and then traced")
	seed := fs.Int64("seed", 1, "seed of the op streams and fault ranges")
	seconds := fs.Int("seconds", 10, "measured time per run at the speed the slices were sized for; op counts scale with it")
	trace := fs.Int("trace", 0, "1 runs the traced run (per-layer metrics) instead of the untraced one (end-to-end metrics)")
	procs := fs.Int("procs", 1, "GOMAXPROCS of the run; 0 leaves the Go default (see README.md, \"One processor\")")
	quick := fs.Bool("quick", false, "test scale: small schemes and a few hundred windows")
	out := fs.String("out", "", "write the full results (slices, host header, metrics) to this JSON file")
	spans := fs.String("spans", "", "traced run of one workload: write the span dump to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files: base.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || *seconds > 60 || *trace < 0 || *trace > 1 || *procs < 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be 1…60, -trace 0 or 1, -procs 0 or more, and no arguments may follow the flags")
		return 2
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, spans: *spans}

	var specs []*workloadSpec
	modes := []bool{opt.trace}
	if *workload == "all" {
		modes = []bool{false, true}
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else {
		sp, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		specs = []*workloadSpec{sp}
	}

	file := resultFile{Schema: resultSchema}
	correct := true
	for _, sp := range specs {
		for _, traced := range modes {
			o := opt
			o.trace = traced
			res, err := runWorkload(sp, o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			printResult(stdout, res)
			file.Results = append(file.Results, res)
			if !res.Correct {
				fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed; first: %s\n", sp.name, res.Failed, res.Attempted, res.FirstFailure)
				correct = false
			}
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(*out), 0o755)
		}
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(file.Results) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		res := file.Results[0]
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !correct {
		return 1
	}
	return 0
}

// printResult prints the host header once per result and every metric by
// name with its unit.
func printResult(w io.Writer, res *result) {
	kind, defs := "untraced", endToEnd
	if res.Traced {
		kind, defs = "traced", perLayer
	}
	h := res.Host
	fmt.Fprintf(w, "# %s %s seed=%d seconds=%d host: %s, %d cpus, GOMAXPROCS=%d, %s %s/%s\n",
		res.Workload, kind, res.Seed, res.Seconds, h.CPUModel, h.NumCPU, h.GoMaxProcs, h.GoVersion, h.GOOS, h.GOARCH)
	fmt.Fprintf(w, "# certified %d ops under the %s contract; stream digest %s\n", res.CertifiedOps, res.Contract, res.StreamDigest)
	var walls, drains, probes, factors []float64
	for _, s := range res.Slices {
		walls = append(walls, s.WallS)
		probes, factors = append(probes, s.ProbeNs), append(factors, s.HostFactor)
		if s.DrainS > 0 {
			drains = append(drains, s.DrainS)
		}
	}
	if len(walls) > 0 {
		s := res.Slices[0]
		fmt.Fprintf(w, "# %d slices of %d ops in %d windows each: fastest %.3f s, median %.3f s, slowest %.3f s",
			len(walls), s.Ops, s.Windows, slices.Min(walls), median(walls), slices.Max(walls))
		if len(drains) > 0 {
			fmt.Fprintf(w, "; repair drained in %.3f s (median of %d cycles)", median(drains), len(drains))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "# host probe: median %.0f ns per load against %.0f on the quiet reference box; times divided by %.3f (median slice)\n",
			median(probes), probeNominalNs, median(factors))
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-32s %16.6g %s\n", res.Workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-14s %-32s %16d ops\n", res.Workload, "attempted", res.Attempted)
	fmt.Fprintf(w, "%-14s %-32s %16d ops\n", res.Workload, "refused", res.Refused)
	fmt.Fprintf(w, "%-14s %-32s %16d ops\n", res.Workload, "failed", res.Failed)
}
