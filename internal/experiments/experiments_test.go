package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every experiment in quick mode and asserts
// that no table reports a theorem violation (the "!!" marker) and that each
// produces non-trivial output.
func TestAllExperimentsQuick(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.Run(&buf, Options{Quick: true}); err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			out := buf.String()
			if len(out) < 80 {
				t.Fatalf("%s produced suspiciously little output:\n%s", r.ID, out)
			}
			if strings.Contains(out, "!!") {
				t.Fatalf("%s reported a violation:\n%s", r.ID, out)
			}
		})
	}
}

func TestAllIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Title == "" || r.Run == nil {
			t.Fatalf("experiment %s incomplete", r.ID)
		}
	}
}
