package mpc

// Claim computes the packed arbitration claim processor p submits for the
// given round: the priority of the (arb, procs, seed) arbitration policy in
// the high bits and p+1 in the low 24 (zero stays reserved as the "no claim"
// sentinel). Lower claims win, and the processor id tiebreak makes claims
// unique, so the winner of a module is simply the minimum claim it received.
//
// The function is exported for networked transports (internal/netmpc):
// a remote module server that receives precomputed claims arbitrates
// identically to the in-process engine without knowing the arbitration
// policy, the processor count, or the seed — those stay client-side, which
// is what lets one server geometry serve machines of different shapes.
func Claim(arb Arbiter, procs int, seed, round uint64, p int) uint64 {
	return pack(priority(arb, procs, seed, round, p), p)
}

// ClaimProc recovers the processor id packed into a claim by Claim.
func ClaimProc(claim uint64) int { return unpackProc(claim) }
