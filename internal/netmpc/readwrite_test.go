package netmpc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
)

// TestReadWriteMatchesInproc drives one stream of mixed Read, Write and
// ReadWrite batches through an in-process system and a TCP system over a
// 4-server loopback cluster, under the same fault set — healthy, then with
// modules failed, then with them under repair — and demands the same values
// and the same verdicts: error class and the Unfinished, Stranded and
// ReadRefused requests. Over the wire a read-write is bid op 3, which the
// server serves as Get then Put, its grant carrying the cell it read.
func TestReadWriteMatchesInproc(t *testing.T) {
	s := testScheme(t)
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	fsLocal := mpc.NewFaultSet()
	local, err := protocol.NewSystem(s, idx, protocol.Config{
		NewMachine: func(cfg mpc.Config) (protocol.Machine, error) { return mpc.NewFailingShared(cfg, fsLocal) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	_, addrs := startCluster(t, s, 4)
	tr := dial(t, s, addrs)
	remote := newTCPSystem(t, s, tr)
	fsRemote := tr.FaultSet()

	rng := rand.New(rand.NewSource(41))
	nv := int(s.NumVariables)
	var victims []uint64
	for len(victims) < 6 {
		if m := uint64(rng.Intn(int(s.NumModules))); !slices.Contains(victims, m) {
			victims = append(victims, m)
		}
	}
	refused := 0
	for batch := 0; batch < 60; batch++ {
		switch batch {
		case 20:
			for _, m := range victims {
				fsLocal.Fail(m)
				fsRemote.Fail(m)
			}
		case 40:
			for _, m := range victims {
				fsLocal.RecoverPending(m)
				fsRemote.RecoverPending(m)
			}
		}
		reqs := make([]protocol.Request, 0, 24)
		for _, v := range rng.Perm(nv)[:1+rng.Intn(24)] {
			reqs = append(reqs, protocol.Request{Var: uint64(v), Op: protocol.Op(rng.Intn(3)), Value: rng.Uint64()})
		}
		lres, lerr := local.Access(reqs)
		rres, rerr := remote.Access(reqs)
		if lres == nil || rres == nil {
			t.Fatalf("batch %d refused: local %v, remote %v", batch, lerr, rerr)
		}
		if got, want := verdictOf(rres, rerr), verdictOf(lres, lerr); got != want {
			t.Fatalf("batch %d: remote %s, local %s", batch, got, want)
		}
		if !slices.Equal(rres.Values, lres.Values) {
			t.Fatalf("batch %d: remote values %v, local %v", batch, rres.Values, lres.Values)
		}
		refused += len(lres.Metrics.ReadRefused)
	}
	if refused == 0 {
		t.Fatal("no read-write had its read refused: the script is not exercising repair")
	}
}

// verdictOf renders a batch's error class and per-request verdicts.
func verdictOf(res *protocol.Result, err error) string {
	class := "ok"
	switch {
	case errors.Is(err, protocol.ErrQuorumUnreachable):
		class = "stranded"
	case errors.Is(err, protocol.ErrIncomplete):
		class = "incomplete"
	case err != nil:
		class = err.Error()
	}
	sorted := func(xs []int) []int { return slices.Sorted(slices.Values(xs)) }
	m := &res.Metrics
	return fmt.Sprintf("%s unfinished %v stranded %v read-refused %v", class, sorted(m.Unfinished), sorted(m.Stranded), sorted(m.ReadRefused))
}
