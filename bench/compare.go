package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkManifest is BENCHMARK.json, the driver's declaration of the
// suite: -compare takes its bounds from it and the schema test compares it
// with what the program emits.
type benchmarkManifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readManifest reads BENCHMARK.json from the working directory or, as the
// benchmark runs from bench/, its parent.
func readManifest() (*benchmarkManifest, error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		blob, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var m benchmarkManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func readResults(path string) (map[string]*result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	out := make(map[string]*result)
	for _, r := range f.Results {
		if !r.Traced {
			out[r.Workload] = r
		}
	}
	return out, nil
}

// sliceValues returns the per-slice (or per-build) values behind a reported
// median, nil for a metric measured once per run.
func sliceValues(r *result, metric string) []float64 {
	if metric == "setup_s" {
		return r.SetupS
	}
	var xs []float64
	for _, s := range r.Slices {
		switch metric {
		case "ops_per_s":
			xs = append(xs, s.opsPerS())
		case "win_p50_us":
			xs = append(xs, s.winP50Us())
		case "rounds_per_op":
			xs = append(xs, s.RoundsPerOp)
		}
	}
	return xs
}

// compareFiles prints every end-to-end metric of every workload as
// base → new with the ratio and the bound from BENCHMARK.json. A metric
// whose slices spread wider than its bound in either file is unresolved:
// the run cannot tell a change of that size from its own noise. It returns
// 1 if a resolved metric got worse by more than its bound, a workload is
// missing from either file, or the refusals of a degraded phase differ.
func compareFiles(basePath, newPath string, stdout, stderr io.Writer) int {
	m, err := readManifest()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	base, err := readResults(basePath)
	if err == nil {
		var next map[string]*result
		if next, err = readResults(newPath); err == nil {
			return compareResults(m, base, next, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareResults(m *benchmarkManifest, base, next map[string]*result, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, wl := range m.Workloads {
		b, n := base[wl.Name], next[wl.Name]
		if b == nil || n == nil {
			fmt.Fprintf(w, "%-14s missing from one of the files\n", wl.Name)
			status = 1
			continue
		}
		for _, d := range m.EndToEnd {
			bv, nv := b.Metrics[d.Name].Value, n.Metrics[d.Name].Value
			// worse is the change in the bad direction as a share of base.
			worse := ratio(nv-bv, bv)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch noise := max(spread(sliceValues(b, d.Name)), spread(sliceValues(n, d.Name))); {
			case noise > d.Bound:
				verdict = fmt.Sprintf("unresolved (slices spread %.1f%%)", noise*100)
			case worse > d.Bound:
				verdict = "REGRESSION"
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %8.3f %6.0f%%  %s\n", wl.Name, d.Name, bv, nv, ratio(nv, bv), d.Bound*100, verdict)
		}
		if b.Failed != 0 || n.Failed != 0 {
			fmt.Fprintf(w, "%-14s failed ops: base %d, new %d\n", wl.Name, b.Failed, n.Failed)
			status = 1
		}
		if b.Seed == n.Seed && b.Seconds == n.Seconds {
			for i := range b.Slices {
				if i < len(n.Slices) && b.Slices[i].RefusedDegraded != n.Slices[i].RefusedDegraded {
					fmt.Fprintf(w, "%-14s slice %d refused %d ops while degraded in base, %d in new: same seed, so the fault layer's verdicts changed\n",
						wl.Name, i, b.Slices[i].RefusedDegraded, n.Slices[i].RefusedDegraded)
					status = 1
				}
			}
		}
	}
	return status
}
