package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"detshmem/internal/consistency"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// TestOpStreamsPinned pins the operations the one closed loop submits to
// those of the hand-rolled drivers it replaced, so tables regenerated from
// here on stay comparable with the ones recorded in EXPERIMENTS.md. Each
// digest covers (client, index, kind, variable, written value) of every
// operation in submission order. They were generated at commit bdd8320 by
// hooking the old drivers — driveShards, driveShardsFaulty, e20Drive,
// e22Drive, e24Drive — at the point of submission, for every seed offset the
// experiments pass them, over the fixture below (q=2 n=5, 4 clients, S=2). A
// mismatch means the loop's op source, windowing or recording changed; never
// regenerate. (The rows of E15, E16, E18 and E21 went with those experiments;
// EXPERIMENTS.md E31 has the ledger.)
func TestOpStreamsPinned(t *testing.T) {
	inst, err := newE7Instance(5)
	if err != nil {
		t.Fatal(err)
	}
	M := inst.s.NumVariables
	const clients, opsPer = 4, 1000

	// Replayed streams: the variable draws E20b (half-hot) and E19's sweep
	// (its zipf workload) feed the loop.
	replayed := func(seed int64) func(*consistency.RunRecorder) [][]shard.BatchOp {
		stream := clientWorkloads(M, opsPer)[1].stream // zipf
		if seed == 20 {
			stream = func(rng *rand.Rand) []uint64 { return workload.HotSpot(rng, M, opsPer, 16, 0.5) }
		}
		return func(*consistency.RunRecorder) [][]shard.BatchOp {
			return clientWorkload{stream: stream}.ops(clients, seed)
		}
	}
	// Sampled streams: the variable sets of E20c and of E22/E24 at quick scale.
	ident, strided := make([]uint64, 48), make([]uint64, 48)
	for i := range ident {
		ident[i] = uint64(i)
		strided[i] = uint64(i*7+3) % M
	}
	sampled := func(opsPer int, vars []uint64, seed, stride int64) func(*consistency.RunRecorder) [][]shard.BatchOp {
		return func(rr *consistency.RunRecorder) [][]shard.BatchOp {
			return sampledOps(rr, clients, opsPer, vars, seed, stride)
		}
	}
	perOp, faulty := driver{window: 64}, driver{window: 64, tolerate: protocol.ErrIncomplete}
	e20 := driver{window: 16, tolerate: protocol.ErrQuorumUnreachable}
	e24 := driver{window: e22Window, tolerate: protocol.ErrIncomplete}

	for _, tc := range []struct {
		was  string // the deleted driver
		seed int64
		ops  func(*consistency.RunRecorder) [][]shard.BatchOp
		d    driver
		want string
	}{
		{"driveShards", 20, replayed(20), perOp, "71570dece33bae50"},
		{"driveShardsFaulty", 19, replayed(19), faulty, "b15e92e1d7400be0"},
		{"e20Drive", 201, sampled(100, ident, 201, 6151), e20, "10a7ba5af4a667b3"},
		{"e20Drive", 202, sampled(50, ident, 202, 6151), e20, "e5c41314deadbe8c"},
		{"e20Drive", 203, sampled(50, ident, 203, 6151), e20, "8ea2fe32b6fe1107"},
		{"e22Drive", 801, sampled(250, strided, 801, 7919), e20, "4a6c89864cd16d85"},
		{"e22Drive", 901, sampled(125, strided, 901, 7919), e20, "18410c35c4dab51d"},
		{"e22Drive", 902, sampled(125, strided, 902, 7919), e20, "0977467dfae6f825"},
		{"e24Drive", 1001, sampled(250, strided, 1001, 7919), e24, "e79da1649cfb7b41"},
		{"e24Drive", 1002, sampled(250, strided, 1002, 7919), e24, "c7e377c66c506eac"},
		{"e24Drive", 1003, sampled(125, strided, 1003, 7919), e24, "6a05b1fa663f8b12"},
		{"e24Drive", 1004, sampled(125, strided, 1004, 7919), e24, "15bcae7d14102885"},
	} {
		t.Run(fmt.Sprintf("%s/seed+%d", tc.was, tc.seed), func(t *testing.T) {
			svc, err := shard.New(inst.pp, shard.Config{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			// The digest is taken from what the loop recorded, so it covers
			// the submission order and the recording, not only the op source.
			rec := consistency.NewRecorder()
			rr := rec.Run("pin", consistency.ContractPerVariable, clients)
			ops := tc.ops(rr)
			tc.d.rec = rr
			got, err := tc.d.drive(svc, ops)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(clients * len(ops[0])); got != (tally{ops: want}) {
				t.Fatalf("healthy drive tallied %+v, want %d ops and no refusals", got, want)
			}
			h := sha256.New()
			for c, trace := range rec.TraceSet().Runs[0].Clients {
				for i, op := range trace {
					var b [25]byte
					binary.LittleEndian.PutUint32(b[0:], uint32(c))
					binary.LittleEndian.PutUint32(b[4:], uint32(i))
					binary.LittleEndian.PutUint64(b[9:], op.Var)
					if op.Write {
						b[8] = 1
						binary.LittleEndian.PutUint64(b[17:], op.Val)
					}
					h.Write(b[:])
				}
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
				t.Errorf("op stream digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
