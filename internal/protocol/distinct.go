package protocol

import "math/bits"

// DistinctBatch is a batch of requests for pairwise-distinct variables built
// one request at a time, with the variable→position index that keeps it
// distinct: Add places a request only if its variable is not in the batch
// yet, and otherwise names the request that holds it. A caller that combines
// operations uses that answer as its lookup, and AccessDistinctInto serves
// the batch without checking distinctness a second time. AccessInto checks
// a plain request slice by building one.
//
// The index is an open-addressed table (power of two, load ≤ ¼,
// multiplicative hash, linear probing) whose slots carry the epoch of the
// batch that filled them. Most adds are misses — a new variable — and at a
// load of ¼ a miss probes about 1.4 slots against 2.5 at ½, which pays for
// the larger table (EXPERIMENTS.md E39). Reset bumps the epoch, so the batch
// is empty again without touching a slot, whatever size the table grew to.
// The zero value is an empty batch.
type DistinctBatch struct {
	reqs  []Request
	slots []varSlot
	shift uint // 64 − log2(len(slots))
	epoch uint32
}

type varSlot struct {
	v     uint64
	epoch uint32 // the slot is occupied iff this equals the batch's epoch
	pos   uint32 // the request naming v
}

// Len is the number of requests in the batch.
func (b *DistinctBatch) Len() int { return len(b.reqs) }

// Requests returns the batch in insertion order, request i being the one Add
// placed at position i. A caller may rewrite a request's Op or Value in
// place — a combining front end coalesces writes that way — but never its
// Var, which the index holds.
func (b *DistinctBatch) Requests() []Request { return b.reqs }

// Add appends r unless its variable is already in the batch. It returns the
// position of the request holding r.Var and whether r is that request.
func (b *DistinctBatch) Add(r Request) (pos int, added bool) {
	if 4*(len(b.reqs)+1) > len(b.slots) {
		b.grow()
	}
	i, found := b.find(r.Var)
	if found {
		return int(b.slots[i].pos), false
	}
	pos = len(b.reqs)
	b.slots[i] = varSlot{v: r.Var, epoch: b.epoch, pos: uint32(pos)}
	b.reqs = append(b.reqs, r)
	return pos, true
}

// Lookup returns the position of the request for v, if the batch has one.
func (b *DistinctBatch) Lookup(v uint64) (pos int, ok bool) {
	if len(b.slots) == 0 {
		return 0, false
	}
	i, found := b.find(v)
	return int(b.slots[i].pos), found
}

// Reset empties the batch in O(1), keeping its storage for the next one.
func (b *DistinctBatch) Reset() {
	b.reqs = b.reqs[:0]
	b.epoch++
	if b.epoch == 0 {
		// The counter wrapped: a slot last filled 2³² batches ago would read
		// as occupied. Forget every stamp once and start over.
		clear(b.slots)
		b.epoch = 1
	}
}

// find returns v's slot when v is in the batch, or else the empty slot v
// would take.
func (b *DistinctBatch) find(v uint64) (slot uint64, found bool) {
	mask := uint64(len(b.slots) - 1)
	i := v * 0x9E3779B97F4A7C15 >> b.shift
	for b.slots[i].epoch == b.epoch {
		if b.slots[i].v == v {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// grow doubles the table (to 16 slots from empty) and re-inserts the batch.
// Fresh slots carry epoch 0, which no batch uses, so they read as empty.
func (b *DistinctBatch) grow() {
	size := max(16, 2*len(b.slots))
	b.slots = make([]varSlot, size)
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if b.epoch == 0 {
		b.epoch = 1
	}
	for pos, r := range b.reqs {
		i, _ := b.find(r.Var)
		b.slots[i] = varSlot{v: r.Var, epoch: b.epoch, pos: uint32(pos)}
	}
}
