package protocol

// digestGolden holds the digests TestBatchDigestsPinned pins, keyed by
// "mapper/policy/scenario". Regenerated twice (see digest_test.go). First when
// a batch began to play the fewest phases whose bids fit N/Copies² modules
// instead of always Copies: every script batch is at most 768 requests, so
// every cell with more than one copy moved, while the q+1-phases cell,
// generated before that change, reproduced unchanged. Then when decide began
// to cancel a request's ungranted bids in the round its quorum completes
// instead of carrying them into the next round: the 25 multi-copy cells moved
// (fewer rounds and bids, and a losing copy is no longer written or read a
// round late), and the 8 single-copy cells kept their constants byte for
// byte — one copy is one bid, so there is nothing to cancel. A mismatch is a
// behaviour change, not a reason to regenerate.
var digestGolden = map[string]uint64{
	"0-pp93/policy=0/healthy":                 0x7f92d73693909954,
	"0-pp93/policy=0/static":                  0xefdf66ccb17cae0b,
	"0-pp93/policy=0/flip":                    0x6cd89198f5ef0bf6,
	"0-pp93/policy=0/repairing":               0x3dc32888e7268150,
	"1-pp93/policy=0/healthy":                 0xdcb2b973ee225803,
	"1-pp93/policy=0/static":                  0x70426da5160f933d,
	"1-pp93/policy=0/flip":                    0x35a2839d2455d0e6,
	"1-pp93/policy=0/repairing":               0xc6782be7f2c798ba,
	"2-mv-c2/policy=0/healthy":                0xfd0a823cfaef98ef,
	"2-mv-c2/policy=0/static":                 0x4e371cca85668614,
	"2-mv-c2/policy=0/flip":                   0x8faac572cb01d132,
	"2-mv-c2/policy=0/repairing":              0x102e91271b301208,
	"3-single-interleaved/policy=0/healthy":   0xaad358a57bdc3c4f,
	"3-single-interleaved/policy=0/static":    0xe48fe730c1ef3376,
	"3-single-interleaved/policy=0/flip":      0xec3499de4b771e05,
	"3-single-interleaved/policy=0/repairing": 0xfe9edf041364305c,
	"4-single-hashed/policy=0/healthy":        0xf6d55195fa19d3d1,
	"4-single-hashed/policy=0/static":         0xce640a31db17d5ea,
	"4-single-hashed/policy=0/flip":           0xafaf4c7f72cc95e7,
	"4-single-hashed/policy=0/repairing":      0xc0c30198278f569a,
	"5-uw-c3/policy=0/healthy":                0xf767cad9d50cc838,
	"5-uw-c3/policy=0/static":                 0x44d9ee6dee9bba05,
	"5-uw-c3/policy=0/flip":                   0x2b443c11675ea91c,
	"5-uw-c3/policy=0/repairing":              0x383283b19154c770,
	"6-pp93/policy=0/healthy":                 0x30a9d755910c10ed,
	"6-pp93/policy=0/static":                  0xe8dea87852984f89,
	"6-pp93/policy=0/flip":                    0xfafcd7d314332aff,
	"6-pp93/policy=0/repairing":               0x1957d8b3c0c13881,
	"7-affine-p61-r3/policy=0/healthy":        0x55188141e3374538,
	"7-affine-p61-r3/policy=0/static":         0xf141fcd90d72f836,
	"7-affine-p61-r3/policy=0/flip":           0x05fdebe23de9e5e5,
	"7-affine-p61-r3/policy=0/repairing":      0xea7067da6dd46834,
	"1-pp93/policy=0/flip/q+1-phases":         0xb3de886556083678,
}
