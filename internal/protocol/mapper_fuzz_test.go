package protocol

import (
	"sync"
	"testing"

	"detshmem/internal/affine"
	"detshmem/internal/baseline"
	"detshmem/internal/core"
)

// The Mapper contract every scheme must satisfy for the quorum executor to
// be correct (NewGenericSystem checks the quorum inequality; placement
// validity is per-variable and is what the fuzzer probes):
//
//   - quorums are in [1, Copies] and ReadQuorum + WriteQuorum > Copies;
//   - every CopyAddr(v, c) with v < NumVars and c < Copies returns
//     module < NumModules and addr < AddrSpace;
//   - the Copies addresses of one variable are pairwise distinct (a quorum
//     of c copies must mean c physical cells, or timestamps lie);
//   - CopyAddr is deterministic.
//
// Until now only the PP93 core had fuzz coverage (internal/core); this
// target exercises the contract uniformly across all four schemes.

var (
	mapperFuzzOnce sync.Once
	mapperFuzzSet  []Mapper
)

func mapperFuzzSetup(t testing.TB) []Mapper {
	mapperFuzzOnce.Do(func() {
		add := func(m Mapper, err error) {
			if err != nil {
				t.Fatal(err)
			}
			mapperFuzzSet = append(mapperFuzzSet, m)
		}
		for _, mn := range [][2]int{{1, 3}, {2, 3}} { // q=2 and q=4
			s, err := core.New(mn[0], mn[1])
			if err != nil {
				t.Fatal(err)
			}
			idx, err := s.NewIndexer()
			if err != nil {
				t.Fatal(err)
			}
			add(NewCoreMapper(s, idx), nil)
		}
		mv, err := baseline.NewMV(64, 4096, 2)
		add(mv, err)
		si, err := baseline.NewSingleCopy(64, 4096, baseline.PlaceInterleaved, 0)
		add(si, err)
		sh, err := baseline.NewSingleCopy(64, 4096, baseline.PlaceHashed, 12345)
		add(sh, err)
		uw, err := baseline.NewUW(64, 4096, 3, 999)
		add(uw, err)
		// Appended after the originals so positional uses ([0] = core q=2,
		// [2] = MV) stay valid: the q=8 core scheme (compact indexer) and
		// the affine Θ(N²) companion organization.
		s8, err := core.New(3, 3)
		if err != nil {
			t.Fatal(err)
		}
		idx8, err := s8.NewIndexer()
		if err != nil {
			t.Fatal(err)
		}
		add(NewCoreMapper(s8, idx8), nil)
		af, err := affine.New(61, 3)
		add(af, err)
	})
	return mapperFuzzSet
}

var (
	contractOnce sync.Once
	contractSet  []Mapper
)

// contractMappers is the fuzz matrix with a q=2 n=9 core mapper appended
// after the existing ones, so the positional uses stay valid: its explicit
// indexer serves S₁–S₃ by the torus lift. It stays out of mapperFuzzSetup,
// whose users compile each member's table and pin its digests.
func contractMappers(t testing.TB) []Mapper {
	contractOnce.Do(func() {
		set := mapperFuzzSetup(t)
		contractSet = append(set[:len(set):len(set)], pp93Mapper(t, 1, 9))
	})
	return contractSet
}

// FuzzMapperContract checks the per-variable placement contract for a
// fuzzed variable index on every scheme.
func FuzzMapperContract(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(63))
	f.Add(uint64(4095))
	f.Add(uint64(349503))
	f.Fuzz(func(t *testing.T, raw uint64) {
		for _, m := range contractMappers(t) {
			r, w, c := m.ReadQuorum(), m.WriteQuorum(), m.Copies()
			if r < 1 || w < 1 || r > c || w > c || r+w <= c {
				t.Fatalf("%s: quorums (%d,%d) invalid for %d copies", m.Name(), r, w, c)
			}
			v := raw % m.NumVars()
			addrs := make(map[uint64]int, c)
			for i := 0; i < c; i++ {
				mod, addr := m.CopyAddr(v, i)
				if mod >= m.NumModules() {
					t.Fatalf("%s: copy %d of %d in module %d >= N=%d", m.Name(), i, v, mod, m.NumModules())
				}
				if addr >= m.AddrSpace() {
					t.Fatalf("%s: copy %d of %d at addr %d >= %d", m.Name(), i, v, addr, m.AddrSpace())
				}
				if prev, dup := addrs[addr]; dup {
					t.Fatalf("%s: copies %d and %d of %d share addr %d", m.Name(), prev, i, v, addr)
				}
				addrs[addr] = i
				if mod2, addr2 := m.CopyAddr(v, i); mod2 != mod || addr2 != addr {
					t.Fatalf("%s: CopyAddr(%d,%d) not deterministic", m.Name(), v, i)
				}
			}
			// Bulk contract: AppendCopyAddrs must equal the per-op sweep in
			// vars-major copy-minor order, for full and partial copy counts.
			vars := [3]uint64{v, (v * 2654435761) % m.NumVars(), (v + 1) % m.NumVars()}
			for _, copies := range []int{c, r} {
				mods, addrs := AppendCopyAddrs(m, nil, nil, vars[:], copies)
				if len(mods) != len(vars)*copies || len(addrs) != len(vars)*copies {
					t.Fatalf("%s: bulk returned %d/%d entries, want %d", m.Name(), len(mods), len(addrs), len(vars)*copies)
				}
				for i, vv := range vars {
					for k := 0; k < copies; k++ {
						wm, wa := m.CopyAddr(vv, k)
						if mods[i*copies+k] != wm || addrs[i*copies+k] != wa {
							t.Fatalf("%s: bulk copy %d of %d = (%d,%d), per-op (%d,%d)",
								m.Name(), k, vv, mods[i*copies+k], addrs[i*copies+k], wm, wa)
						}
					}
				}
			}
		}
	})
}
