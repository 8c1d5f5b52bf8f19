package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCollector builds a deterministic collector state covering every
// metric family the writer emits.
func goldenCollector() *Collector {
	c := NewCollector()
	ev := RoundEvent{Round: 0, Requests: 9, Granted: 4, MaxLoad: 4}
	ev.Contention.Observe(4)
	ev.Contention.Observe(2)
	ev.Contention.Observe(2)
	ev.Contention.Observe(1)
	c.RecordRound(ev)
	c.RecordRound(RoundEvent{Round: 1, Requests: 3, Granted: 3, MaxLoad: 1})
	c.ObserveBatch(BatchEvent{Requests: 12, Phases: 3, Rounds: 2, MaxPhi: 2, CopyAccesses: 7, GrantedBids: 7, Unfinished: 0})
	c.ObserveRingDepth(5)
	c.ObserveRingDepth(2)
	c.ObserveFlush(FlushSize)
	c.ObserveFlush(FlushIdle)
	c.ObserveFlush(FlushExplicit)
	c.ObserveFlush(FlushConflict)
	c.ObserveFlush(FlushIdle)
	c.ObserveResolverResidency(3, 49152)
	c.ObserveRepair(RepairEvent{Copies: 6, Salvaged: 1, Rounds: 4, Issued: 9, Granted: 8, Certified: 2, Backlog: 1})
	return c
}

// TestWritePrometheusGolden pins the text exposition format byte-for-byte
// against testdata/metrics.golden.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Prometheus output diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestWritePrometheusWellFormed sanity-checks the exposition format
// invariants independent of the golden bytes: every sample line belongs to
// a declared metric, histogram buckets are cumulative, and counts match.
func TestWritePrometheusWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			declared[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && declared[b] {
				base = b
				break
			}
		}
		if !declared[base] {
			t.Fatalf("sample %q has no # TYPE declaration", line)
		}
		if !strings.HasPrefix(name, promNamespace+"_") {
			t.Fatalf("sample %q is missing the %s namespace", line, promNamespace)
		}
	}
	// Histogram invariant: the +Inf bucket equals the count.
	out := buf.String()
	if !strings.Contains(out, `detshmem_ring_depth_bucket{le="+Inf"} 2`) ||
		!strings.Contains(out, "detshmem_ring_depth_count 2") {
		t.Fatalf("ring_depth histogram +Inf/count mismatch:\n%s", out)
	}
}
