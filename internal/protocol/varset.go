package protocol

import "math/bits"

// varSet is the scratch behind AccessInto's duplicate-variable check: an
// open-addressed set (power-of-two table, load ≤ ½, multiplicative hash,
// linear probing) whose slots carry the epoch of the batch that filled them.
// Starting a batch bumps the epoch, so the set is empty again without
// touching a slot.
type varSet struct {
	slots []varSlot
	shift uint // 64 − log2(len(slots))
	epoch uint32
}

type varSlot struct {
	v     uint64
	epoch uint32 // the slot is occupied iff this equals the set's epoch
}

// begin empties the set and makes room for n insertions.
func (s *varSet) begin(n int) {
	if 2*n > len(s.slots) {
		size := 16
		for size < 2*n {
			size <<= 1
		}
		s.slots = make([]varSlot, size)
		s.shift = uint(64 - bits.TrailingZeros(uint(size)))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 {
		// The counter wrapped: a slot last filled 2³² batches ago would read
		// as occupied. Forget every stamp once and start over.
		clear(s.slots)
		s.epoch = 1
	}
}

// add inserts v and reports whether it was already in the set.
func (s *varSet) add(v uint64) bool {
	mask := uint64(len(s.slots) - 1)
	i := v * 0x9E3779B97F4A7C15 >> s.shift
	for s.slots[i].epoch == s.epoch {
		if s.slots[i].v == v {
			return true
		}
		i = (i + 1) & mask
	}
	s.slots[i] = varSlot{v: v, epoch: s.epoch}
	return false
}
