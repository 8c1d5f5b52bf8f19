package protocol

// digestGolden holds the digests TestBatchDigestsPinned pins, keyed by
// "mapper/policy/scenario". Generated at commit 7e384ba (see digest_test.go);
// a mismatch is a behaviour change, not a reason to regenerate.
var digestGolden = map[string]uint64{
	"0-pp93/policy=0/healthy":                 0xdbf25baff2ae02a7,
	"0-pp93/policy=0/static":                  0x7cdd3987fac06631,
	"0-pp93/policy=0/flip":                    0x2174dd0ff5675891,
	"0-pp93/policy=0/repairing":               0xf23a4605c24703fd,
	"1-pp93/policy=0/healthy":                 0xd4d3ab62b78933f7,
	"1-pp93/policy=0/static":                  0x5cd39d8f56f915c8,
	"1-pp93/policy=0/flip":                    0x7785fda060e303b2,
	"1-pp93/policy=0/repairing":               0xb5285c1e52070088,
	"2-mv-c2/policy=0/healthy":                0xa2dbb64032359484,
	"2-mv-c2/policy=0/static":                 0xd718fcdeeba6daa1,
	"2-mv-c2/policy=0/flip":                   0xb73032e44bfe2418,
	"2-mv-c2/policy=0/repairing":              0x458d13366005d820,
	"3-single-interleaved/policy=0/healthy":   0xaad358a57bdc3c4f,
	"3-single-interleaved/policy=0/static":    0xe48fe730c1ef3376,
	"3-single-interleaved/policy=0/flip":      0xec3499de4b771e05,
	"3-single-interleaved/policy=0/repairing": 0xfe9edf041364305c,
	"4-single-hashed/policy=0/healthy":        0xf6d55195fa19d3d1,
	"4-single-hashed/policy=0/static":         0xce640a31db17d5ea,
	"4-single-hashed/policy=0/flip":           0xafaf4c7f72cc95e7,
	"4-single-hashed/policy=0/repairing":      0xc0c30198278f569a,
	"5-uw-c3/policy=0/healthy":                0x8965d95a24a3b0a5,
	"5-uw-c3/policy=0/static":                 0x7387432c140a6914,
	"5-uw-c3/policy=0/flip":                   0x9dc8a306771b234a,
	"5-uw-c3/policy=0/repairing":              0x36774c8660695f5f,
	"6-pp93/policy=0/healthy":                 0x104cd441319eede3,
	"6-pp93/policy=0/static":                  0x6fec8b22b88a314a,
	"6-pp93/policy=0/flip":                    0xf8ef1b8730dcceea,
	"6-pp93/policy=0/repairing":               0xb1d72e08e92d7b60,
	"7-affine-p61-r3/policy=0/healthy":        0x23b2638718fb8095,
	"7-affine-p61-r3/policy=0/static":         0x5b391d21588e1c01,
	"7-affine-p61-r3/policy=0/flip":           0xcb804f84f334bd6b,
	"7-affine-p61-r3/policy=0/repairing":      0x8ea0c4cd6c5e25c1,
}
