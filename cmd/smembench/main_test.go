package main

import (
	"strings"
	"testing"

	"detshmem/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	var all []experiments.Runner
	for _, id := range []string{"e1", "e6", "e11", "e14", "e17"} {
		all = append(all, experiments.Runner{ID: id})
	}
	for _, tc := range []struct {
		name, exp string
		want      string // selected ids, space-separated
		wantErr   string // substring of the error; "" = none
	}{
		{name: "empty selects all in order", want: "e1 e6 e11 e14 e17"},
		{name: "one id", exp: "e6", want: "e6"},
		{name: "list keeps the experiments' order", exp: "e14,e1", want: "e1 e14"},
		{name: "ids are trimmed and case-folded", exp: " E6 , e11", want: "e6 e11"},
		{name: "a repeated id runs once", exp: "e6,e6", want: "e6"},
		{name: "typo beside a valid id is rejected by name", exp: "e6,e99", wantErr: `unknown experiment id "e99"`},
		{name: "every typo is named", exp: "e98,e6,e99", wantErr: `"e98", "e99"`},
		{name: "the error lists the known ids", exp: "nope", wantErr: "known ids: e1 e6 e11 e14 e17"},
		{name: "a trailing comma is an unknown empty id", exp: "e6,", wantErr: `unknown experiment id ""`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectExperiments(all, tc.exp)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				if got != nil {
					t.Fatalf("selected %d experiments beside the error", len(got))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, len(got))
			for i, r := range got {
				ids[i] = r.ID
			}
			if s := strings.Join(ids, " "); s != tc.want {
				t.Fatalf("selected %q, want %q", s, tc.want)
			}
		})
	}
}

// TestDeletedExperimentsAreUnknown: the five perf tables whose cells are
// bench/ workloads, and the four fault, consistency and cluster drills whose
// gates moved to tests and cmd/netcluster, are no longer ids — asking for one
// is the unknown-id error naming it, against the real list.
func TestDeletedExperimentsAreUnknown(t *testing.T) {
	all := experiments.All()
	if len(all) != 15 {
		t.Fatalf("%d experiments, want 15", len(all))
	}
	for _, id := range []string{"e15", "e16", "e18", "e19", "e20", "e21", "e22", "e23", "e24"} {
		if _, err := selectExperiments(all, "e6,"+id); err == nil || !strings.Contains(err.Error(), `"`+id+`"`) {
			t.Errorf("-exp e6,%s: error %v, want one naming %q", id, err, id)
		}
	}
}
