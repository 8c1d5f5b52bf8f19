package protocol

// digestGolden holds the digests TestBatchDigestsPinned pins, keyed by
// "mapper/policy/scenario". Regenerated when a batch began to play the fewest
// phases whose bids fit N/Copies² modules instead of always Copies (see
// digest_test.go): every script batch is at most 768 requests, so every cell
// with more than one copy moved. The q+1-phases cell was generated on the
// tree before that change and reproduced after it, unchanged. A mismatch is
// a behaviour change, not a reason to regenerate.
var digestGolden = map[string]uint64{
	"0-pp93/policy=0/healthy":                 0x49ba4f612c21104d,
	"0-pp93/policy=0/static":                  0x04cbe018361e78bf,
	"0-pp93/policy=0/flip":                    0xd9819e2346baa727,
	"0-pp93/policy=0/repairing":               0x2abb2cfc02b13047,
	"1-pp93/policy=0/healthy":                 0x32d3cefd0cd4ddb3,
	"1-pp93/policy=0/static":                  0xbe7ab4e1ef497f91,
	"1-pp93/policy=0/flip":                    0x05f97f5da972a12e,
	"1-pp93/policy=0/repairing":               0x12e64aeb198886f7,
	"2-mv-c2/policy=0/healthy":                0x478e3bfd527218b0,
	"2-mv-c2/policy=0/static":                 0x1f6c26faaa257305,
	"2-mv-c2/policy=0/flip":                   0xea8ce9c389bb0f9d,
	"2-mv-c2/policy=0/repairing":              0xd9db10ad240c6464,
	"3-single-interleaved/policy=0/healthy":   0xaad358a57bdc3c4f,
	"3-single-interleaved/policy=0/static":    0xe48fe730c1ef3376,
	"3-single-interleaved/policy=0/flip":      0xec3499de4b771e05,
	"3-single-interleaved/policy=0/repairing": 0xfe9edf041364305c,
	"4-single-hashed/policy=0/healthy":        0xf6d55195fa19d3d1,
	"4-single-hashed/policy=0/static":         0xce640a31db17d5ea,
	"4-single-hashed/policy=0/flip":           0xafaf4c7f72cc95e7,
	"4-single-hashed/policy=0/repairing":      0xc0c30198278f569a,
	"5-uw-c3/policy=0/healthy":                0x5f8781d243e00e89,
	"5-uw-c3/policy=0/static":                 0xe3f7aa85021faa50,
	"5-uw-c3/policy=0/flip":                   0x708157f3e5aab67e,
	"5-uw-c3/policy=0/repairing":              0x7f0089a1a0cd6493,
	"6-pp93/policy=0/healthy":                 0xffd88ec5bf1898fe,
	"6-pp93/policy=0/static":                  0xdb7969e4a034555e,
	"6-pp93/policy=0/flip":                    0xf47d857617e71b9f,
	"6-pp93/policy=0/repairing":               0x6e49a9ad469e7527,
	"7-affine-p61-r3/policy=0/healthy":        0x26db25c48329ee41,
	"7-affine-p61-r3/policy=0/static":         0x39ecab16a09465b9,
	"7-affine-p61-r3/policy=0/flip":           0xfb92ce3db90dacd3,
	"7-affine-p61-r3/policy=0/repairing":      0xec00832e1d768ac5,
	"1-pp93/policy=0/flip/q+1-phases":         0xf698c758605061ba,
}
