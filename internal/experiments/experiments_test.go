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

// TestOptionsValidate: a transport E22 and E24 do not know, or external
// servers with the TCP cells switched off, used to print the headers, run no
// cell and exit 0; a fault schedule E19 does not know was refused only when
// E19's turn came (and not at all without it), and a negative fault count ran
// the full ladder.
func TestOptionsValidate(t *testing.T) {
	ext := []string{"127.0.0.1:7001", "127.0.0.1:7002"}
	for _, tc := range []struct {
		name       string
		transport  string
		servers    []string
		faultSched string
		faults     int
		wantErr    string // substring of the error; "" = none
	}{
		{name: "default runs every cell"},
		{name: "inproc", transport: "inproc"},
		{name: "tcp on the loopback cluster", transport: "tcp"},
		{name: "tcp on external servers", transport: "tcp", servers: ext},
		{name: "external servers, every cell", servers: ext},
		{name: "unknown transport is named", transport: "udp", wantErr: `unknown transport "udp"`},
		{name: "the error lists the known transports", transport: "udp", wantErr: "inproc, tcp"},
		{name: "transports are not case-folded", transport: "TCP", wantErr: `unknown transport "TCP"`},
		{name: "unknown transport with servers", transport: "quic", servers: ext, wantErr: `"quic"`},
		{name: "external servers without the tcp cells", transport: "inproc", servers: ext, wantErr: "switches off"},
		{name: "churn schedule", faultSched: "churn"},
		{name: "pinned fault count", faults: 127},
		{name: "unknown fault schedule is named", faultSched: "bogus", wantErr: `unknown fault schedule "bogus"`},
		{name: "the error lists the known schedules", faultSched: "bogus", wantErr: "known schedules: churn"},
		{name: "schedules are not case-folded", faultSched: "Churn", wantErr: `"Churn"`},
		{name: "negative fault count", faults: -1, wantErr: "negative fault count -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Options{Transport: tc.transport, Servers: tc.servers, FaultSched: tc.faultSched, Faults: tc.faults}.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
