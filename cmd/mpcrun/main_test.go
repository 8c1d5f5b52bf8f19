package main

import "testing"

// TestFlagErrors: a flag value mpcrun would run as something else is refused
// before anything is built — main exits 2 on the error checkFlags returns.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		n, batch       int
		wl, op, scheme string
		ok             bool
	}{
		{5, 0, "random", "write", "pp", true},
		{5, 1023, "gamma", "read", "mv", true},
		{3, 63, "stride", "write", "uw", true},
		{5, 0, "random", "bogus", "pp", false},
		{5, 0, "random", "Read", "pp", false},
		{5, -5, "random", "write", "pp", false},
		{5, 99999, "random", "write", "pp", false},
		{5, 1024, "random", "write", "pp", false},
		{5, 0, "zipf", "write", "pp", false},
		{5, 0, "random", "write", "rr", false},
		{2, 0, "random", "write", "pp", false},
		{25, 0, "random", "write", "pp", false},
	} {
		if err := checkFlags(tc.n, tc.batch, tc.wl, tc.op, tc.scheme); (err == nil) != tc.ok {
			t.Errorf("-n %d -batch %d -workload %s -op %s -scheme %s: error %v, want ok=%v",
				tc.n, tc.batch, tc.wl, tc.op, tc.scheme, err, tc.ok)
		}
	}
}
