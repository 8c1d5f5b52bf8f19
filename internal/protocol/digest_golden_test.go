package protocol

// digestGolden holds the digests TestBatchDigestsPinned pins, keyed by
// "mapper/policy/scenario". Regenerated three times (see digest_test.go).
// First when a batch began to play the fewest phases whose bids fit
// N/Copies² modules instead of always Copies: every script batch is at most
// 768 requests, so every cell with more than one copy moved, while the
// q+1-phases cell, generated before that change, reproduced unchanged. Then
// when decide began to cancel a request's ungranted bids in the round its
// quorum completes instead of carrying them into the next round: the 25
// multi-copy cells moved (fewer rounds and bids, and a losing copy is no
// longer written or read a round late), and the 8 single-copy cells kept
// their constants byte for byte — one copy is one bid, so there is nothing to
// cancel. Last when a phase's bids left after its first round began to ride
// in the next phase's first round, and a multi-phase batch to get a machine
// of N processors: the 23 cells whose script has a batch of several phases
// moved (every cell of mappers 0, 1, 2, 5 and 7, the flip and repairing cells
// of mapper 6, whose repair waves follow the larger machine, and the
// q+1-phases cell), while the 8 single-copy cells, whose every batch is one
// phase, kept their constants, and so did mapper 6's healthy and static
// cells, whose nine phases of ≤ 86 requests on 37 449 modules each finish in
// one round and carry nothing. A mismatch is a behaviour change, not a reason
// to regenerate.
var digestGolden = map[string]uint64{
	"0-pp93/policy=0/healthy":                 0x2272fa8e4270f4df,
	"0-pp93/policy=0/static":                  0xdf8f97f5bdded547,
	"0-pp93/policy=0/flip":                    0xc3ae0fda2f3e26bd,
	"0-pp93/policy=0/repairing":               0x62f3da9f8917c1c7,
	"1-pp93/policy=0/healthy":                 0x07b8aa562660633a,
	"1-pp93/policy=0/static":                  0x52562e1c8e067fe0,
	"1-pp93/policy=0/flip":                    0xe60b814478925b01,
	"1-pp93/policy=0/repairing":               0x65a557c2b09f76ba,
	"2-mv-c2/policy=0/healthy":                0x7e526a399d47ed08,
	"2-mv-c2/policy=0/static":                 0x7c6c20c24f08e929,
	"2-mv-c2/policy=0/flip":                   0x4b937df801273140,
	"2-mv-c2/policy=0/repairing":              0xd8f94da018574d73,
	"3-single-interleaved/policy=0/healthy":   0xaad358a57bdc3c4f,
	"3-single-interleaved/policy=0/static":    0xe48fe730c1ef3376,
	"3-single-interleaved/policy=0/flip":      0xec3499de4b771e05,
	"3-single-interleaved/policy=0/repairing": 0xfe9edf041364305c,
	"4-single-hashed/policy=0/healthy":        0xf6d55195fa19d3d1,
	"4-single-hashed/policy=0/static":         0xce640a31db17d5ea,
	"4-single-hashed/policy=0/flip":           0xafaf4c7f72cc95e7,
	"4-single-hashed/policy=0/repairing":      0xc0c30198278f569a,
	"5-uw-c3/policy=0/healthy":                0x6fc09e68324f2e5a,
	"5-uw-c3/policy=0/static":                 0x300b6eb11e0e554a,
	"5-uw-c3/policy=0/flip":                   0xba7acb6052ba48a7,
	"5-uw-c3/policy=0/repairing":              0x63e32fe9613ca25d,
	"6-pp93/policy=0/healthy":                 0x30a9d755910c10ed,
	"6-pp93/policy=0/static":                  0xe8dea87852984f89,
	"6-pp93/policy=0/flip":                    0xd3fc325a7ba134be,
	"6-pp93/policy=0/repairing":               0x67030bb0618b2961,
	"7-affine-p61-r3/policy=0/healthy":        0x6ce09d217e8e2357,
	"7-affine-p61-r3/policy=0/static":         0x39f5479b04db4bff,
	"7-affine-p61-r3/policy=0/flip":           0xc198edef1c306074,
	"7-affine-p61-r3/policy=0/repairing":      0xc24d395b60265e96,
	"1-pp93/policy=0/flip/q+1-phases":         0x631ca8b4c5df2e06,
}
