package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/protocol"
	"detshmem/internal/shard"
	"detshmem/internal/workload"
)

// writePct is the write share of every client stream in E19–E24.
const writePct = 40

// replayOps turns per-client variable streams into operations. The
// read/write coin is the client's own RNG (workload.ClientRNG(seed, c)), so
// every cell fed the same streams replays identical operations, and a write's
// value names its client and its index in the stream.
func replayOps(streams [][]uint64, seed int64) [][]shard.BatchOp {
	ops := make([][]shard.BatchOp, len(streams))
	for c, stream := range streams {
		rng := workload.ClientRNG(seed, c)
		ops[c] = make([]shard.BatchOp, len(stream))
		for i, v := range stream {
			ops[c][i] = shard.BatchOp{Var: v}
			if rng.Intn(100) < writePct {
				ops[c][i] = shard.BatchOp{Write: true, Var: v, Val: uint64(c)<<32 | uint64(i)}
			}
		}
	}
	return ops
}

// sampledOps draws opsPer operations per client over a small variable set:
// client c picks variable then coin from rand.NewSource(seed + c·stride), and
// its writes take the run recorder's unique values, which the trace checker's
// data-uniqueness condition requires. Successive drives recorded on one run
// keep minting fresh values.
func sampledOps(rr *consistency.RunRecorder, clients, opsPer int, vars []uint64, seed, stride int64) [][]shard.BatchOp {
	ops := make([][]shard.BatchOp, clients)
	for c := range ops {
		cr := rr.Client(c)
		rng := rand.New(rand.NewSource(seed + int64(c)*stride))
		ops[c] = make([]shard.BatchOp, opsPer)
		for i := range ops[c] {
			v := vars[rng.Intn(len(vars))]
			ops[c][i] = shard.BatchOp{Var: v}
			if rng.Intn(100) < writePct {
				ops[c][i] = shard.BatchOp{Write: true, Var: v, Val: cr.WriteValue()}
			}
		}
	}
	return ops
}

// warmup is the first quarter of every client's operations.
func warmup(ops [][]shard.BatchOp) [][]shard.BatchOp {
	out := make([][]shard.BatchOp, len(ops))
	for c := range ops {
		out[c] = ops[c][:len(ops[c])/4]
	}
	return out
}

// driver is the closed-loop client of E19–E24: each client goroutine submits
// its operations window by window and waits for the whole window before the
// next, so a slow service receives less load.
type driver struct {
	window int
	// tolerate is the class of typed refusals the cell expects: an operation
	// failing with an error of that class is tallied and the stream continues
	// — how a fault-tolerant client consumes the service. It is nil (any error
	// fails the drive), protocol.ErrQuorumUnreachable, or protocol.ErrIncomplete,
	// which includes the former.
	tolerate error
	// rec, when non-nil, records every operation in program order on its
	// client's recorder, refused ones as failed, for the trace checker.
	rec *consistency.RunRecorder
}

// tally is what one drive observed, summed over clients.
type tally struct {
	ops      int64 // operations the service answered, refusals included
	stranded int64 // refused with ErrQuorumUnreachable: live copies below quorum
	blocked  int64 // refused with another ErrIncomplete verdict: quorum held up by uncertified modules
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.stranded += o.stranded
	t.blocked += o.blocked
}

// drive runs one client per element of ops against the service and returns
// when all are done. The first error outside the tolerated class fails it.
func (d driver) drive(svc *shard.Service, ops [][]shard.BatchOp) (tally, error) {
	parts := make([]tally, len(ops))
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = d.client(svc, c, ops[c], &parts[c])
		}(c)
	}
	wg.Wait()
	var sum tally
	for c := range parts {
		sum.add(parts[c])
	}
	for c, err := range errs {
		if err != nil {
			return sum, fmt.Errorf("client %d: %w", c, err)
		}
	}
	return sum, nil
}

func (d driver) client(svc *shard.Service, c int, ops []shard.BatchOp, out *tally) error {
	var cr *consistency.ClientRecorder
	if d.rec != nil {
		cr = d.rec.Client(c)
	}
	futs := make([]*frontend.Future, 0, d.window)
	for len(ops) > 0 {
		win := ops[:min(d.window, len(ops))]
		ops = ops[len(win):]
		futs = futs[:0]
		for _, op := range win {
			var fut *frontend.Future
			var err error
			if op.Write {
				fut, err = svc.WriteAsync(op.Var, op.Val)
			} else {
				fut, err = svc.ReadAsync(op.Var)
			}
			if err != nil {
				return err
			}
			futs = append(futs, fut)
		}
		for i, op := range win {
			got, err := futs[i].Wait()
			if err != nil && (d.tolerate == nil || !errors.Is(err, d.tolerate)) {
				return err
			}
			out.ops++
			switch {
			case err == nil:
			case errors.Is(err, protocol.ErrQuorumUnreachable):
				out.stranded++
			default:
				out.blocked++
			}
			if cr != nil {
				val := op.Val
				if !op.Write && err == nil {
					val = got
				}
				cr.Record(op.Write, op.Var, val, err != nil)
			}
		}
	}
	return nil
}

// measureCell is the measured cell of E19's fault sweep: a warm-up over the
// first quarter of every stream sizes each shard's scratch, a GC fence keeps
// one cell's garbage off the next cell's clock, and the cell's time is the
// median of a few timed drives (each including its trailing Flush), since a
// single run of tens of milliseconds is at the mercy of scheduler noise. The
// tally is the timed drives' mean.
func measureCell(svc *shard.Service, ops [][]shard.BatchOp, d driver, quick bool) (time.Duration, tally, error) {
	if _, err := d.drive(svc, warmup(ops)); err != nil {
		return 0, tally{}, err
	}
	runtime.GC()
	reps := 3
	if quick {
		reps = 2
	}
	var sum tally
	elapsed := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		t, err := d.drive(svc, ops)
		if ferr := svc.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			return 0, tally{}, err
		}
		elapsed = append(elapsed, time.Since(start))
		sum.add(t)
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })
	n := int64(reps)
	return elapsed[len(elapsed)/2], tally{sum.ops / n, sum.stranded / n, sum.blocked / n}, nil
}

// clientWorkload is one traffic shape: stream draws a client's variables from
// that client's RNG.
type clientWorkload struct {
	name   string
	stream func(rng *rand.Rand) []uint64
}

// clientWorkloads are the traffic shapes E19 sweeps (hot-spot: 16 hot
// variables hit with p = 0.85).
func clientWorkloads(numVars uint64, opsPer int) []clientWorkload {
	return []clientWorkload{
		{"uniform", func(rng *rand.Rand) []uint64 { return workload.HotSpot(rng, numVars, opsPer, 16, 0) }},
		{"zipf", func(rng *rand.Rand) []uint64 { return workload.Zipf(rng, numVars, opsPer, 1.1) }},
		{"hot-spot", func(rng *rand.Rand) []uint64 { return workload.HotSpot(rng, numVars, opsPer, 16, 0.85) }},
	}
}

// ops draws the workload's client streams and their operations from one seed,
// so every cell of a sweep replays the same operations and differences are
// attributable to the execution layer alone.
func (wl clientWorkload) ops(clients int, seed int64) [][]shard.BatchOp {
	streams := make([][]uint64, clients)
	for c := range streams {
		streams[c] = wl.stream(workload.ClientRNG(seed, c))
	}
	return replayOps(streams, seed)
}

// exactStrandRate is the stranding a static fault set must cause, through the
// scheme's Γ map: the fraction of the workload's variables whose live copies
// fell below their majority.
func exactStrandRate(inst *e7Instance, fs *mpc.FaultSet, vars []uint64) float64 {
	strandedVars := 0
	var buf []uint64
	for _, v := range vars {
		buf = inst.s.VarModules(buf[:0], inst.idx.Mat(v))
		live := 0
		for _, m := range buf {
			if !fs.Failed(m) {
				live++
			}
		}
		if live < inst.s.Majority {
			strandedVars++
		}
	}
	return float64(strandedVars) / float64(len(vars))
}
