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

// Batch is the handle for one AccessBatch call. It owns a copy of the
// submitted operations, each beside its result cell, grouped by shard so
// that every shard's sub-batch is one contiguous run — the queue entry names
// the run, and the flusher reads the ops from here. The batch completes as a
// whole: each touched shard's flusher marks its sub-batch done once, after
// the flush that commits the sub-batch's last op, and Wait, Value and Seq
// all wait for every sub-batch — so Value(i) returns once the whole batch
// has committed, not only op i.
type Batch struct {
	ops []batchOp
	// at[i] is the caller's op i's place in ops; nil when ops is in the
	// caller's order (one shard took them all).
	at []int32
	// done counts the sub-batches not yet completed.
	done sync.WaitGroup
}

// batchOp is one admitted operation of a Batch beside its result cell, in
// 48 bytes: the write flag rides in the top bit of the variable word
// (opWrite), which no variable in range sets — a mapper has at most 2^40
// copy addresses, so far fewer variables. An AccessBatch window of 64 ops is
// then one 3 KiB allocation, not 4 KiB.
type batchOp struct {
	fut frontend.Future
	v   uint64 // the variable, with opWrite set for a write
	val uint64 // the written value (writes only)
}

// opWrite marks a write in batchOp.v.
const opWrite = 1 << 63

// set stores op. A variable id of 2^63 or more is out of range for every
// mapper; it is stored as 2^63−1, which is out of range as well, so the
// flusher refuses the op all the same (naming variable 2^63−1).
func (e *batchOp) set(op BatchOp) {
	e.v, e.val = min(op.Var, opWrite-1), op.Val
	if op.Write {
		e.v |= opWrite
	}
}

// get returns the op set stored.
func (e *batchOp) get() BatchOp {
	return BatchOp{Write: e.v&opWrite != 0, Var: e.v &^ opWrite, Val: e.val}
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// future returns the caller's op i's future.
func (b *Batch) future(i int) *frontend.Future {
	if b.at != nil {
		i = int(b.at[i])
	}
	return &b.ops[i].fut
}

// Wait blocks until every operation has committed and returns the first
// per-op error in the caller's op order, if any (later errors are still
// retrievable per op with Value, so one stranded request does not hide
// another's verdict).
func (b *Batch) Wait() error {
	b.done.Wait()
	for i := range b.ops {
		if _, err := b.future(i).Result(); err != nil {
			return err
		}
	}
	return nil
}

// Value blocks until the batch has committed and returns operation i's
// result: the value read (reads), or the per-request error attribution from
// the fault layer. For writes the value is 0 on success.
func (b *Batch) Value(i int) (uint64, error) {
	b.done.Wait()
	return b.future(i).Result()
}

// Seq blocks until the batch has committed and returns operation i's commit
// sequence number within its shard. Sequence numbers order operations within
// one shard only — there is no cross-shard commit order.
func (b *Batch) Seq(i int) uint64 {
	b.done.Wait()
	return b.future(i).Seq()
}

// partition is the pooled scratch for AccessBatch's counting sort: the
// per-op shard route and the per-shard group boundaries. Pooled so a
// steady-state caller partitions without allocating.
type partition struct {
	shardOf []int32
	off     []int32
	fill    []int32
}

var partitionPool = sync.Pool{New: func() any { return new(partition) }}

// grow resizes the scratch for nOps operations over nShards shards.
func (p *partition) grow(nOps, nShards int) {
	if cap(p.shardOf) < nOps {
		p.shardOf = make([]int32, nOps)
	}
	p.shardOf = p.shardOf[:nOps]
	if cap(p.off) < nShards+1 {
		p.off = make([]int32, nShards+1)
		p.fill = make([]int32, nShards)
	}
	p.off = p.off[:nShards+1]
	p.fill = p.fill[:nShards]
	clear(p.off)
}

// AccessBatch submits ops — which may touch any mix of variables across
// all shards — with one synchronization and one queue entry per touched
// shard: the ops are copied into the returned Batch, grouped by Route in one
// counting-sort pass, and each shard's group is admitted into its queue as a
// single entry, which the shard's flusher admits op by op in ops order. The
// Batch completes once every touched shard has committed its sub-batch. An
// op naming a variable outside [0, NumVars) fails alone with
// protocol.ErrVarOutOfRange; the rest of the batch is unaffected. Per-shard admission order follows ops order,
// so the per-variable linearizability contract and Batch.Seq semantics are
// those of issuing the ops one blocking Read or Write at a time. The caller
// may reuse ops as soon as AccessBatch returns.
//
// The allocations are the Batch, its ops and — when more than one shard is
// touched — its order map: three, whatever the number of ops or shards.
//
// On error (e.g. a closing service) it returns no Batch; ops already
// admitted to earlier shards still execute.
func (s *Service) AccessBatch(ops []BatchOp) (*Batch, error) {
	b := &Batch{}
	if len(ops) == 0 {
		return b, nil
	}
	b.ops = make([]batchOp, len(ops))
	if len(s.shards) == 1 {
		for i := range ops {
			b.ops[i].set(ops[i])
		}
		b.done.Add(1)
		if err := s.shards[0].d.queue.enqueueBatch(b, 0, int32(len(ops))); err != nil {
			return nil, err
		}
		return b, nil
	}
	p := partitionPool.Get().(*partition)
	p.grow(len(ops), len(s.shards))
	for i := range ops {
		sh := int32(s.Route(ops[i].Var))
		p.shardOf[i] = sh
		p.off[sh+1]++
	}
	touched := 0
	for sh := 1; sh <= len(s.shards); sh++ {
		if p.off[sh] != 0 {
			touched++
		}
		p.off[sh] += p.off[sh-1]
	}
	// Scatter the ops into per-shard groups (stable: within a shard, the
	// group keeps ops order, so per-shard admission order is ops order).
	b.at = make([]int32, len(ops))
	copy(p.fill, p.off[:len(s.shards)])
	for i := range ops {
		sh := p.shardOf[i]
		j := p.fill[sh]
		p.fill[sh]++
		b.ops[j].set(ops[i])
		b.at[i] = j
	}
	b.done.Add(touched)
	var err error
	for sh := range s.shards {
		lo, hi := p.off[sh], p.off[sh+1]
		if lo == hi {
			continue
		}
		if aerr := s.shards[sh].d.queue.enqueueBatch(b, lo, hi); aerr != nil {
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
