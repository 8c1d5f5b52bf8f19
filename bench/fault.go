package main

import (
	"fmt"
	"time"

	"detshmem/internal/shard"
)

// drainPoll is how often the watcher reads FaultSet.RepairCount.
const drainPoll = time.Millisecond

// cycleStats is what a fault cycle reports beside its tally.
type cycleStats struct {
	// drainS runs from RecoverPending to an empty repair set.
	drainS float64
	// refusedDegraded counts phase B's refusals. The fault set is static
	// there, so the count is a function of the seed alone.
	refusedDegraded int64
}

// cycle drives the fault workload's slice as one scripted cycle. The fault
// set changes only at client barriers, between drives, so what fails is a
// function of the op index and the seed, never of the wall clock:
//
//	A  a quarter of the ops, healthy
//	B  Fail a seeded contiguous range of N/4 modules; a quarter of the ops
//	C  RecoverPending the range; a quarter of the ops while the repair
//	   sweep runs under them; then wait, idle, until the sweep has
//	   certified every module
//	D  a quarter of the ops, healthy
//
// The returned tally's wall time covers the four drives and not the idle
// wait.
func (r *runner) cycle(deadline time.Time) (tally, cycleStats, error) {
	fs := r.st.faults
	quarter := func(i int) [][]shard.BatchOp {
		out := make([][]shard.BatchOp, len(r.bufs))
		for c, ops := range r.bufs {
			n := len(ops) / 4
			out[c] = ops[i*n : (i+1)*n]
		}
		return out
	}
	var total tally
	var cs cycleStats
	run := func(i int, ph phase) error {
		t, err := r.drv.drive(quarter(i), ph, deadline)
		total.add(&t)
		return err
	}

	if err := run(0, healthy); err != nil {
		return total, cs, err
	}
	lo, hi := r.gen.faultRange(r.st.scheme.NumModules)
	r.drv.lost = lostMajority(r.st.resolver, lo, hi)
	defer func() { r.drv.lost = nil }()
	for m := lo; m < hi; m++ {
		fs.Fail(m)
	}
	if err := run(1, degraded); err != nil {
		return total, cs, err
	}
	cs.refusedDegraded = total.refused

	recovered := time.Now()
	for m := lo; m < hi; m++ {
		fs.RecoverPending(m)
	}
	stop := make(chan struct{})
	drained := make(chan time.Time)
	go func() {
		tick := time.NewTicker(drainPoll)
		defer tick.Stop()
		for fs.RepairCount() > 0 {
			select {
			case <-stop:
				drained <- time.Time{}
				return
			case <-tick.C:
			}
		}
		drained <- time.Now()
	}()
	if err := run(2, repairing); err != nil {
		close(stop)
		<-drained
		return total, cs, err
	}
	select {
	case at := <-drained:
		cs.drainS = at.Sub(recovered).Seconds()
	case <-time.After(time.Until(deadline)):
		close(stop)
		<-drained
		return total, cs, fmt.Errorf("repair backlog stuck at %d modules past the wall-clock ceiling", fs.RepairCount())
	}
	r.drv.lost = nil
	return total, cs, run(3, healthy)
}
