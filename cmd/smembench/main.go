// Command smembench regenerates the experiment tables E1–E14 and E17 (the
// paper's analytical claims as measurements, plus the round-trace
// observability check). See DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	smembench [-exp e1,e4,...] [-quick] [-seed N]
//	          [-trace FILE] [-tracecap N] [-pprof ADDR]
//
// With no -exp it runs everything in order; an id that names no experiment is
// an error before anything runs. The experiments' results are their printed
// tables, and an experiment whose gate fails exits nonzero. The repository's
// benchmark — fixed workloads, one result schema, the regression gate — is
// the bench/ module (go run -C bench .), not this command, and the
// process-level fault drills are cmd/netcluster's.
//
// -trace attaches the obs ring-buffer tracer plus the cumulative collector
// to every experiment system and dumps the per-round trajectory as JSON:
// round index, live requests, granted copies and the per-module contention
// histogram, alongside the collector's batch-level totals. The dump is
// self-validating — smembench exits nonzero if the trace totals do not match
// the summed protocol metrics.
//
// -pprof serves net/http/pprof, expvar (/debug/vars), and the Prometheus
// text format (/metrics) on the given address for the duration of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sort"
	"strings"
	"time"

	"detshmem/internal/experiments"
	"detshmem/internal/obs"
)

// traceDump is the -trace output: the tracer's trajectory and exact totals,
// the collector's batch-level view of the same run, and the consistency
// verdict between tracer and collector.
type traceDump struct {
	Totals     obs.TraceTotals  `json:"totals"`
	Dropped    uint64           `json:"dropped"`
	Collector  map[string]int64 `json:"collector"`
	Consistent bool             `json:"consistent"`
	Events     []obs.RoundEvent `json:"events"`
}

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment ids (e1..e14, e17); empty = all")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast run")
		seed     = flag.Int64("seed", 0, "workload RNG seed (0 = default)")
		traceF   = flag.String("trace", "", "capture per-round MPC events and write the JSON trajectory here")
		traceCap = flag.Int("tracecap", obs.DefaultTraceCap, "ring capacity for -trace (oldest events drop beyond it)")
		pprofA   = flag.String("pprof", "", "serve pprof + expvar + Prometheus /metrics on this address (e.g. :6060)")
	)
	flag.Parse()

	selected, err := selectExperiments(experiments.All(), *expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smembench: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}

	collector := obs.NewCollector()
	var tracer *obs.Tracer
	if *traceF != "" {
		tracer = obs.NewTracer(*traceCap)
		opts.Recorder = obs.Multi(tracer, collector)
		opts.Observer = collector
	}
	if *pprofA != "" {
		if opts.Observer == nil {
			// No tracer requested: still aggregate, so /metrics has data.
			opts.Recorder = collector
			opts.Observer = collector
		}
		collector.PublishExpvar("detshmem")
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := collector.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Printf("serving pprof/expvar/metrics on %s\n\n", *pprofA)
	}

	for _, r := range selected {
		fmt.Printf("=== %s: %s ===\n", strings.ToUpper(r.ID), r.Title)
		start := time.Now()
		if err := r.Run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}

	if tracer != nil {
		if err := writeTrace(*traceF, tracer, collector); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// selectExperiments resolves the -exp list against the known experiments, in
// the experiments' own order; an empty list selects them all. Every listed id
// must name an experiment: a typo is an error naming it, never a silently
// shorter run.
func selectExperiments(all []experiments.Runner, exp string) ([]experiments.Runner, error) {
	selected := all
	if exp != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(exp, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
		selected = nil
		for _, r := range all {
			if want[r.ID] {
				selected = append(selected, r)
				delete(want, r.ID)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for id := range want {
				unknown = append(unknown, fmt.Sprintf("%q", id))
			}
			sort.Strings(unknown)
			known := make([]string, len(all))
			for i, r := range all {
				known[i] = r.ID
			}
			return nil, fmt.Errorf("unknown experiment id %s; known ids: %s",
				strings.Join(unknown, ", "), strings.Join(known, " "))
		}
	}
	return selected, nil
}

// writeTrace dumps the captured trajectory and verifies it against the
// collector's summed protocol metrics: every MPC round recorded by the
// tracer must be a round some batch's Metrics.TotalRounds accounted for,
// every grant a Metrics.GrantedBids bid, and every issued bid either a
// traced live request or a bid the fault layer dropped at a failed module —
// Σ Requests + Σ DroppedBids == Σ IssuedBids, so the books balance exactly
// even under failure injection (instrumented systems install tracer and
// collector together, so the two views describe the same runs).
func writeTrace(path string, tracer *obs.Tracer, collector *obs.Collector) error {
	totals := tracer.Totals()
	dump := traceDump{
		Totals:    totals,
		Dropped:   tracer.Dropped(),
		Collector: collector.Snapshot(),
		Consistent: totals.Rounds == uint64(collector.Rounds.Load()) &&
			totals.Granted == uint64(collector.GrantedBids.Load()) &&
			totals.Requests+totals.DroppedBids == uint64(collector.IssuedBids.Load()),
		Events: tracer.Events(),
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(dump)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	fmt.Printf("trace: %d rounds (%d buffered, %d dropped) -> %s\n",
		totals.Rounds, len(dump.Events), dump.Dropped, path)
	if !dump.Consistent {
		return fmt.Errorf("trace: totals diverge from protocol metrics: traced rounds=%d granted=%d requests+dropped=%d, metrics rounds=%d granted=%d issued=%d",
			totals.Rounds, totals.Granted, totals.Requests+totals.DroppedBids,
			collector.Rounds.Load(), collector.GrantedBids.Load(), collector.IssuedBids.Load())
	}
	fmt.Printf("trace: totals consistent with protocol metrics (rounds=%d, granted=%d, issued=%d of which %d dropped at failed modules)\n",
		totals.Rounds, totals.Granted, collector.IssuedBids.Load(), totals.DroppedBids)
	return nil
}
