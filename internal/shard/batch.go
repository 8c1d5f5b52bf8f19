package shard

import (
	"sync"

	"detshmem/internal/frontend"
)

// BatchOp is one operation in a cross-shard batch.
type BatchOp struct {
	Write bool   // false = read
	Var   uint64 // variable id
	Val   uint64 // written value (writes only)
}

// Batch is the handle for one AccessBatch call: a future per operation,
// all backed by one slab allocation. Results are read per op with Value,
// or the whole batch awaited with Wait.
type Batch struct {
	futs []*frontend.Future
	slab []frontend.Future
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.futs) }

// Wait blocks until every operation has committed and returns the first
// per-op error, if any (later errors are still retrievable per op with
// Value, so one stranded request does not hide another's verdict).
func (b *Batch) Wait() error {
	var first error
	for _, f := range b.futs {
		if _, err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Value blocks until operation i has committed and returns its result: the
// value read (reads), or the per-request error attribution from the fault
// layer. For writes the value is 0 on success.
func (b *Batch) Value(i int) (uint64, error) { return b.futs[i].Wait() }

// Seq returns operation i's commit sequence number within its shard, valid
// after the op completes. Sequence numbers order operations within one
// shard only — there is no cross-shard commit order.
func (b *Batch) Seq(i int) uint64 { return b.futs[i].Seq() }

// partition is the pooled scratch for AccessBatch's counting sort: the
// per-op shard route, the op indices grouped by shard, and the per-shard
// group boundaries. Pooled so a steady-state caller partitions without
// allocating.
type partition struct {
	shardOf []int32
	idx     []int32
	off     []int32
	fill    []int32
}

var partitionPool = sync.Pool{New: func() any { return new(partition) }}

// grow resizes the scratch for nOps operations over nShards shards.
func (p *partition) grow(nOps, nShards int) {
	if cap(p.shardOf) < nOps {
		p.shardOf = make([]int32, nOps)
		p.idx = make([]int32, nOps)
	}
	p.shardOf = p.shardOf[:nOps]
	p.idx = p.idx[:nOps]
	if cap(p.off) < nShards+1 {
		p.off = make([]int32, nShards+1)
		p.fill = make([]int32, nShards)
	}
	p.off = p.off[:nShards+1]
	p.fill = p.fill[:nShards]
	for i := range p.off {
		p.off[i] = 0
	}
}

// AccessBatch submits ops — which may touch any mix of variables across
// all shards — with one synchronization per touched shard: the ops are
// partitioned by Route in one counting-sort pass, each shard's sub-batch
// is admitted into its ring with a single atomic claim, and the returned
// Batch completes every op through its own future. An op naming a variable
// outside [0, NumVars) fails alone with protocol.ErrVarOutOfRange; the rest
// of the batch is unaffected. Per-shard admission order follows ops order,
// so the per-variable linearizability contract and Future.Seq semantics are
// exactly those of the per-op API.
//
// On error (e.g. a closing service), ops already admitted to earlier
// shards still execute; the caller should discard the Batch without
// waiting on it.
func (s *Service) AccessBatch(ops []BatchOp) (*Batch, error) {
	b := &Batch{}
	if len(ops) == 0 {
		return b, nil
	}
	// One slab for all futures: AccessBatch's allocation cost is two
	// slices + one slab, independent of the number of shards touched.
	b.slab = make([]frontend.Future, len(ops))
	b.futs = make([]*frontend.Future, len(ops))
	for i := range b.slab {
		b.futs[i] = &b.slab[i]
	}
	if len(s.shards) == 1 {
		return b, s.shards[0].d.ring.enqueueBatch(ops, nil, b.futs)
	}
	p := partitionPool.Get().(*partition)
	p.grow(len(ops), len(s.shards))
	for i := range ops {
		sh := int32(s.Route(ops[i].Var))
		p.shardOf[i] = sh
		p.off[sh+1]++
	}
	for sh := 1; sh <= len(s.shards); sh++ {
		p.off[sh] += p.off[sh-1]
	}
	// Scatter op indices into per-shard groups (stable: within a shard,
	// idx preserves ops order, so per-shard admission order is ops order).
	copy(p.fill, p.off[:len(s.shards)])
	for i := range ops {
		sh := p.shardOf[i]
		p.idx[p.fill[sh]] = int32(i)
		p.fill[sh]++
	}
	var err error
	for sh := range s.shards {
		lo, hi := p.off[sh], p.off[sh+1]
		if lo == hi {
			continue
		}
		if aerr := s.shards[sh].d.ring.enqueueBatch(ops, p.idx[lo:hi], b.futs); aerr != nil {
			err = aerr
			break
		}
	}
	partitionPool.Put(p)
	if err != nil {
		return nil, err
	}
	return b, nil
}
