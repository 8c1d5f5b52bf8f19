package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"detshmem/internal/consistency"
	"detshmem/internal/core"
	"detshmem/internal/frontend"
	"detshmem/internal/mpc"
	"detshmem/internal/obs"
	"detshmem/internal/protocol"
)

// driveAudited hammers the service with windowed hot-spot traffic from
// concurrent clients (unique write values, the recorder discipline) and
// waits every future. Returns the number of submitted operations.
func driveAudited(t *testing.T, svc *Service, clients, opsPerClient int, vars uint64, seed int64) int {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*104729))
			const window = 16
			pending := make([]*frontend.Future, 0, window)
			drain := func() {
				for _, f := range pending {
					if _, err := f.Wait(); err != nil {
						t.Errorf("client %d: %v", c, err)
					}
				}
				pending = pending[:0]
			}
			seq := uint64(0)
			for i := 0; i < opsPerClient; i++ {
				v := uint64(rng.Int63n(8))
				if rng.Intn(100) >= 60 {
					v = uint64(rng.Int63n(int64(vars)))
				}
				var f *frontend.Future
				var err error
				if rng.Intn(100) < 40 {
					seq++
					f, err = svc.WriteAsync(v, uint64(c+1)<<40|seq)
				} else {
					f, err = svc.ReadAsync(v)
				}
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				pending = append(pending, f)
				if len(pending) == window {
					drain()
				}
			}
			drain()
		}(c)
	}
	wg.Wait()
	return clients * opsPerClient
}

// TestAuditedServiceCleanTraffic runs the always-on sampling audit at Rate 1
// over the shard matrix: legitimate traffic must never trip the
// auditor, every shard's ring must replay to a certified per-variable trace,
// and the counters must surface through the per-shard collectors.
func TestAuditedServiceCleanTraffic(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		cfg.Observe = true
		cfg.Audit = consistency.AuditConfig{Rate: 1}
		t.Run(cfg.name(), func(t *testing.T) {
			svc := newService(t, 3, cfg)
			ops := driveAudited(t, svc, 4, 150, 48, 11)
			if t.Failed() {
				t.FailNow()
			}
			if err := svc.Flush(); err != nil {
				t.Fatal(err)
			}
			st := svc.AuditStats()
			if st.Violations != 0 {
				for i := 0; i < svc.Shards(); i++ {
					t.Logf("shard %d samples: %+v", i, svc.Auditor(i).ViolationSamples())
				}
				t.Fatalf("clean traffic tripped the audit: %+v", st)
			}
			// The audit stream is the coalesced commit-order entry stream:
			// ops on one variable combined into a batch audit as one entry,
			// so Rate 1 samples every entry — positive, at most ops.
			if st.Sampled == 0 || st.Sampled > int64(ops) {
				t.Fatalf("Rate 1 sampled %d entries over %d ops", st.Sampled, ops)
			}
			// The dispatchers are quiescent after Flush + Wait: each shard's
			// commit-order ring must certify under the shard contract.
			var fromCols int64
			for i := 0; i < svc.Shards(); i++ {
				if rep := svc.Auditor(i).CheckNow(); !rep.OK {
					t.Fatalf("shard %d ring rejected: %+v", i, rep.First())
				}
				fromCols += svc.Collector(i).Snapshot()["audit_sampled_total"]
			}
			if fromCols != st.Sampled {
				t.Fatalf("collector counters say %d sampled, auditors say %d", fromCols, st.Sampled)
			}
			snap := svc.Snapshot()
			if snap["shard0_audit_sampled_total"] == 0 && snap["shard1_audit_sampled_total"] == 0 {
				t.Fatalf("audit counters missing from service snapshot: %v", snap)
			}
		})
	}
}

// TestAuditedServicePartialRate checks that fractional sampling composes
// with routing: at Rate 0.25 over 4 shards a strict subset of the variable
// space is audited, spread over the shards, still with zero violations.
func TestAuditedServicePartialRate(t *testing.T) {
	svc := newService(t, 3, Config{
		Shards: 4,
		Audit:  consistency.AuditConfig{Rate: 0.25},
	})
	ops := driveAudited(t, svc, 4, 200, 80, 23)
	if t.Failed() {
		t.FailNow()
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	st := svc.AuditStats()
	if st.Violations != 0 {
		t.Fatalf("clean traffic tripped the audit: %+v", st)
	}
	if st.Sampled == 0 || st.Sampled >= int64(ops) {
		t.Fatalf("0.25 sampling audited %d of %d ops, want a strict nonzero subset", st.Sampled, ops)
	}
	audited := 0
	for i := 0; i < svc.Shards(); i++ {
		if svc.Auditor(i).Stats().Sampled > 0 {
			audited++
		}
	}
	if audited < 2 {
		t.Fatalf("sampled variables landed on only %d/4 shards", audited)
	}
}

// TestAuditedFlushSteadyStateAllocs is the alloc_test.go guard with the
// sampling audit enabled at Rate 1: the flush path — now including
// Pending.Audit and the auditor's slot probe, counters, and ring append —
// must still run at zero allocations per batch in steady state.
func TestAuditedFlushSteadyStateAllocs(t *testing.T) {
	svc := newService(t, 3, Config{
		Shards:  2,
		Observe: true,
		Audit:   consistency.AuditConfig{Rate: 1},
	})
	d := svc.shards[0].d
	if d.aud == nil {
		t.Fatal("audit config did not reach the dispatcher")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	const opsPer = 6
	p := frontend.NewPending(opsPer)
	admit := func(futs []*frontend.Future) {
		for k := 0; k < opsPer; k++ {
			if k%2 == 0 {
				p.Write(uint64(k+1), uint64(k), uint64(k), futs[k])
			} else {
				p.Read(uint64(k+1), uint64(k+10), futs[k])
			}
		}
	}
	mint := func() []*frontend.Future {
		futs := make([]*frontend.Future, opsPer)
		for i := range futs {
			futs[i] = frontend.NewFuture()
		}
		return futs
	}
	for i := 0; i < 3; i++ {
		admit(mint())
		d.flushOne(p, obs.FlushSize)
		p.Reset()
	}

	const runs = 100
	pool := make([][]*frontend.Future, runs+2)
	for i := range pool {
		pool[i] = mint()
	}
	next := 0
	if avg := testing.AllocsPerRun(runs, func() {
		admit(pool[next])
		next++
		d.flushOne(p, obs.FlushSize)
		p.Reset()
	}); avg != 0 {
		t.Fatalf("audited flush path allocates %.2f per batch in steady state, want 0", avg)
	}
	if st := svc.shards[0].aud.Stats(); st.Sampled == 0 {
		t.Fatal("auditor saw no operations through the measured flush path")
	}
}

// auditFaultService is faultService with the sampling audit enabled.
func auditFaultService(t testing.TB, shards int, fs *mpc.FaultSet, pcfg protocol.Config) (*Service, *core.Scheme, core.Indexer) {
	t.Helper()
	s, err := core.New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.NewIndexer()
	if err != nil {
		t.Fatal(err)
	}
	pcfg.NewMachine = func(mcfg mpc.Config) (protocol.Machine, error) { return mpc.NewFailingShared(mcfg, fs) }
	svc, err := New(protocol.NewCoreMapper(s, idx), Config{
		Shards:   shards,
		MaxBatch: 16,
		Protocol: pcfg,
		Audit:    consistency.AuditConfig{Rate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, s, idx
}

// TestAuditDegradedBatchNoFalseAlarm pins the auditor's failed-op policy on
// the real fault path: a degraded batch strands the victim's read and a
// fresh write with ErrQuorumUnreachable while healthy operations commit.
// The stranded ops must be fed to the auditor as failures (slot degraded to
// unknown, never a mismatch), and after recovery the ring must still replay
// to a certified trace — no false alarms from partial failure.
func TestAuditDegradedBatchNoFalseAlarm(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, idx := auditFaultService(t, 2, fs, protocol.Config{})
	defer svc.Close()

	victim := uint64(10)
	vmods := s.VarModules(nil, idx.Mat(victim))
	failed := map[uint64]bool{}
	for _, m := range vmods {
		failed[m] = true
	}
	var healthy []uint64
	var scratch []uint64
	for v := uint64(0); len(healthy) < 6; v++ {
		if v == victim {
			continue
		}
		live := 0
		scratch = s.VarModules(scratch[:0], idx.Mat(v))
		for _, m := range scratch {
			if !failed[m] {
				live++
			}
		}
		if live >= s.Majority {
			healthy = append(healthy, v)
		}
	}

	for _, v := range append([]uint64{victim}, healthy...) {
		if err := svc.Write(v, v+900); err != nil {
			t.Fatalf("write of %d: %v", v, err)
		}
	}
	for _, m := range vmods {
		fs.Fail(m)
	}

	// Strand both kinds: a read and a write of a fresh value.
	vr, err := svc.ReadAsync(victim)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := svc.WriteAsync(victim, 7777)
	if err != nil {
		t.Fatal(err)
	}
	hf := make([]*frontend.Future, len(healthy))
	for i, v := range healthy {
		if hf[i], err = svc.ReadAsync(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Wait(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("victim read verdict: %v", err)
	}
	if _, err := vw.Wait(); !errors.Is(err, protocol.ErrQuorumUnreachable) {
		t.Fatalf("victim write verdict: %v", err)
	}
	for i, f := range hf {
		got, err := f.Wait()
		if err != nil || got != healthy[i]+900 {
			t.Fatalf("healthy read of %d = %d, %v", healthy[i], got, err)
		}
	}

	for _, m := range vmods {
		fs.Recover(m)
	}
	if v, err := svc.Read(victim); err != nil || v != victim+900 {
		t.Fatalf("victim after recovery: %d, %v", v, err)
	}

	if st := svc.AuditStats(); st.Violations != 0 {
		for i := 0; i < svc.Shards(); i++ {
			t.Logf("shard %d samples: %+v", i, svc.Auditor(i).ViolationSamples())
		}
		t.Fatalf("degraded batch produced audit false alarms: %+v", st)
	}
	for i := 0; i < svc.Shards(); i++ {
		if rep := svc.Auditor(i).CheckNow(); !rep.OK {
			t.Fatalf("shard %d ring rejected after fault cycle: %+v", i, rep.First())
		}
	}
}

// TestAuditFaultHammer is the -race concurrency lane for the audit path:
// background Fail/Recover churn (never more than one module down, so every
// request eventually succeeds via retry) under concurrent audited traffic.
// The auditor must stay silent and its ring consistent throughout.
func TestAuditFaultHammer(t *testing.T) {
	fs := mpc.NewFaultSet()
	svc, s, _ := auditFaultService(t, 2, fs, protocol.Config{FaultAttempts: 64})
	defer svc.Close()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		m := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.Fail(m)
			time.Sleep(100 * time.Microsecond)
			fs.Recover(m)
			m = (m + 7) % s.NumModules
		}
	}()

	ops := 200
	if testing.Short() {
		ops = 80
	}
	driveAudited(t, svc, 4, ops, 50, 31)
	close(stop)
	churn.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	st := svc.AuditStats()
	if st.Violations != 0 {
		t.Fatalf("audit tripped under single-failure churn: %+v", st)
	}
	if st.Sampled == 0 {
		t.Fatal("auditor saw no traffic")
	}
	for i := 0; i < svc.Shards(); i++ {
		if rep := svc.Auditor(i).CheckNow(); !rep.OK {
			t.Fatalf("shard %d ring rejected after churn: %+v", i, rep.First())
		}
	}
}
