package main

import (
	"errors"
	"time"

	"detshmem/internal/frontend"
	"detshmem/internal/pgl"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
)

// replayStats is what the replay measured: time per layer call, and the
// protocol's own counts, which repeat exactly for a seed because nothing
// in the replay depends on the scheduler.
type replayStats struct {
	ops, reqs int64 // client ops admitted, protocol requests issued
	// Σ time in each layer call, ns. rounds is the part of access spent in
	// Machine.Round; coreResolve times core.Scheme.ResolveCopies alone.
	coalesce, requests, resolve, access, rounds, complete, coreResolve int64
	totals                                                             batchTotals
	spans                                                              *ring   // the replay's own spans
	rings                                                              []*ring // spans plus the machines' round spans
}

func (rp *replayStats) export(ms metricSet) {
	ops, reqs := float64(rp.ops), float64(rp.reqs)
	ms["frontend.coalesce_ns_per_op"] = ratio(float64(rp.coalesce), ops)
	ms["frontend.requests_ns_per_req"] = ratio(float64(rp.requests), reqs)
	ms["frontend.complete_ns_per_op"] = ratio(float64(rp.complete), ops)
	ms["protocol.access_ns_per_req"] = ratio(float64(rp.access), reqs)
	ms["protocol.resolve_ns_per_var"] = ratio(float64(rp.resolve), reqs)
	ms["protocol.loop_self_ns_per_req"] = ratio(float64(rp.access-rp.resolve-rp.rounds), reqs)
	ms["core.resolve_ns_per_var"] = ratio(float64(rp.coreResolve), reqs)
	ms["replay.rounds_per_batch"] = ratio(float64(rp.totals.rounds), float64(rp.totals.batches))
	ms["replay.phi_max"] = float64(rp.totals.phiMax)
	ms["replay.issued_bids_per_req"] = ratio(float64(rp.totals.issued), float64(rp.totals.requests))
	ms["replay.combine_frac"] = 1 - ratio(reqs, ops)
}

// replayRings is the first ring number of the replay's spans.
const replayRings = 1 << 8

// replayShard is one shard's share of the replay: what the shard's flusher
// owns in the real service, driven here by the caller's goroutine.
type replayShard struct {
	sys  *protocol.System
	cur  *frontend.Pending
	seq  uint64
	reqs []protocol.Request
	res  protocol.Result
}

// replay feeds the first windows windows of every client's stream through
// the layers' public functions on one goroutine, timing each call: the
// dispatcher's admission rules (frontend.Pending), request serialization,
// address resolution, protocol.System.AccessInto over a healthy in-process
// machine (whose rounds are timed as the access span's children) and
// future completion. Windows are admitted round-robin over the clients and
// each shard's batch is flushed after every round — what the idle flush
// does in the closed loop when all clients are blocked in Wait — or earlier
// on the dispatcher's size and write-after-read conflict rules.
func replay(st *stack, streams [][]shard.BatchOp, window, windows int) (*replayStats, error) {
	rt := newTracer(replayRings, 0, st.sp.shards)
	rt.on.Store(true)
	rp := &replayStats{spans: newRing(replayRings + st.sp.shards)}
	root := rp.spans.newID()
	began := time.Now()

	maxBatch := int(st.mapper.NumModules())
	pcfg := protocol.Config{Observer: rt}
	if st.sp.computed {
		pcfg.Strategy = protocol.ResolverComputed
	} else {
		pcfg.Resolver = st.resolver.(*protocol.CompiledResolver)
	}
	shards := make([]*replayShard, st.sp.shards)
	for i := range shards {
		cfg := pcfg
		cfg.Transport = &timedTransport{shard: i, inner: protocol.Inproc.NewMachine, tc: rt}
		sys, err := protocol.NewGenericSystem(st.mapper, cfg)
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		shards[i] = &replayShard{sys: sys, cur: frontend.NewPending(maxBatch)}
	}

	copies := st.mapper.Copies()
	var vars, mods, addrs []uint64
	var mats [64]pgl.Mat
	coreMods := make([]uint64, len(mats)*copies)
	coreOffs := make([]uint32, len(mats)*copies)

	flush := func(i int) error {
		sh := shards[i]
		t0 := time.Now()
		sh.reqs = sh.cur.Requests(sh.reqs)
		t1 := time.Now()

		vars = vars[:0]
		for _, q := range sh.reqs {
			vars = append(vars, q.Var)
		}
		t2 := time.Now()
		mods, addrs = protocol.AppendCopyAddrs(st.resolver, mods[:0], addrs[:0], vars, copies)
		t3 := time.Now()

		for base := 0; base < len(vars); base += len(mats) {
			n := min(len(mats), len(vars)-base)
			for j := 0; j < n; j++ {
				mats[j] = st.idx.Mat(vars[base+j])
			}
			c0 := time.Now()
			st.scheme.ResolveCopies(mats[:n], copies, coreMods[:n*copies], coreOffs[:n*copies])
			rp.coreResolve += time.Since(c0).Nanoseconds()
		}

		accessID := rp.spans.newID()
		rs := rt.shards[i]
		rs.parent = accessID
		roundsBefore := rs.sum
		t4 := time.Now()
		err := sh.sys.AccessInto(sh.reqs, &sh.res)
		t5 := time.Now()
		if err != nil {
			return err
		}
		sh.cur.Complete(&sh.res, nil)
		sh.cur.Reset()
		t6 := time.Now()

		rp.reqs += int64(len(sh.reqs))
		rp.requests += t1.Sub(t0).Nanoseconds()
		rp.resolve += t3.Sub(t2).Nanoseconds()
		rp.access += t5.Sub(t4).Nanoseconds()
		rp.rounds += rs.sum - roundsBefore
		rp.complete += t6.Sub(t5).Nanoseconds()
		rp.spans.add(span{Name: "requests", Parent: root, Shard: i}, rt.since(t0), rt.since(t1))
		rp.spans.add(span{Name: "resolve", Parent: root, Shard: i}, rt.since(t2), rt.since(t3))
		rp.spans.put(span{Name: "access", ID: accessID, Parent: root, Shard: i, Start: rt.since(t4), End: rt.since(t5)})
		rp.spans.add(span{Name: "complete", Parent: root, Shard: i}, rt.since(t5), rt.since(t6))
		return nil
	}

	for w := 0; w < windows; w++ {
		for _, ops := range streams {
			win := ops[w*window : (w+1)*window]
			futs := make([]frontend.Future, len(win))
			t0 := time.Now()
			for j := range win {
				op := &win[j]
				i := st.svc.Route(op.Var)
				sh := shards[i]
				sh.seq++
				if op.Write {
					if sh.cur.WriteConflicts(op.Var) {
						rp.coalesce += time.Since(t0).Nanoseconds()
						if err := flush(i); err != nil {
							return nil, err
						}
						t0 = time.Now()
					}
					sh.cur.Write(sh.seq, op.Var, op.Val, &futs[j])
				} else {
					sh.cur.Read(sh.seq, op.Var, &futs[j])
				}
				if sh.cur.Distinct() >= maxBatch {
					rp.coalesce += time.Since(t0).Nanoseconds()
					if err := flush(i); err != nil {
						return nil, err
					}
					t0 = time.Now()
				}
			}
			t1 := time.Now()
			rp.coalesce += t1.Sub(t0).Nanoseconds()
			rp.spans.add(span{Name: "coalesce", Parent: root}, rt.since(t0), rt.since(t1))
			rp.ops += int64(len(win))
		}
		for i, sh := range shards {
			if sh.cur.Ops() > 0 {
				if err := flush(i); err != nil {
					return nil, err
				}
			}
		}
	}
	rp.spans.put(span{Name: "replay", ID: root, Start: rt.since(began), End: rt.since(time.Now())})
	rp.rings = []*ring{rp.spans}
	for _, rs := range rt.shards {
		rp.rings = append(rp.rings, rs.spans)
	}
	rp.totals = rt.totals
	if rp.reqs == 0 {
		return nil, errors.New("replay saw no requests")
	}
	return rp, nil
}
