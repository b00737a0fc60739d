package lightning

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// brightHalfQuery builds a width-wide query whose bright half encodes the
// expected class (0 = first half, 1 = second half).
func brightHalfQuery(width int, class int) []Code {
	q := make([]Code, width)
	lo, hi := 0, width/2
	if class == 1 {
		lo, hi = width/2, width
	}
	for i := lo; i < hi; i++ {
		q[i] = 200
	}
	return q
}

// serveQuery pushes one single-fragment query through HandleMessage.
func serveQuery(t *testing.T, n *NIC, id uint32, modelID uint16, q []Code) (*Response, error) {
	t.Helper()
	raw := make([]byte, len(q))
	for i, c := range q {
		raw[i] = byte(c)
	}
	return n.HandleMessage(&Message{RequestID: id, ModelID: modelID, Payload: raw})
}

// TestMetricsPerShardHealth: per-shard counters must appear in Metrics and
// sum to the aggregates, with fresh shards healthy at score 0.
func TestMetricsPerShardHealth(t *testing.T) {
	const width = 64
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 3, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	const queries = 10
	for i := 0; i < queries; i++ {
		if _, err := serveQuery(t, n, uint32(i+1), 4, brightHalfQuery(width, i%2)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	m := n.Metrics()
	if len(m.Shards) != 2 {
		t.Fatalf("Metrics.Shards has %d entries, want 2", len(m.Shards))
	}
	var sum uint64
	for i, h := range m.Shards {
		if h.State != ShardHealthy {
			t.Errorf("shard %d state = %v, want healthy", i, h.State)
		}
		if h.Score != 0 || h.Errors != 0 {
			t.Errorf("shard %d score=%.2f errors=%d on a fault-free run", i, h.Score, h.Errors)
		}
		sum += h.Served
	}
	if sum != queries || m.Served != queries {
		t.Errorf("per-shard served sums to %d, aggregate %d, want %d", sum, m.Served, queries)
	}
	// Round-robin across two healthy shards splits evenly.
	if m.Shards[0].Served != queries/2 || m.Shards[1].Served != queries/2 {
		t.Errorf("shard served split = %d/%d, want even", m.Shards[0].Served, m.Shards[1].Served)
	}
}

// TestClientErrorsDoNotTripBreaker: a storm of unknown-model and wrong-width
// queries is client misbehavior, not a hardware fault — shard health must be
// untouched while every query still gets its canonical rejection.
func TestClientErrorsDoNotTripBreaker(t *testing.T) {
	const width = 64
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 4, Cores: 2, HealthWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := serveQuery(t, n, uint32(100+i), 99, []Code{1, 2, 3}); err == nil {
			t.Fatal("unknown model served")
		}
		if _, err := serveQuery(t, n, uint32(200+i), 4, []Code{1, 2, 3}); err == nil {
			t.Fatal("wrong-width query served")
		}
	}
	m := n.Metrics()
	for i, h := range m.Shards {
		if h.State != ShardHealthy || h.Errors != 0 || h.Score != 0 {
			t.Errorf("shard %d degraded by client errors: %+v", i, h)
		}
	}
	if m.Health.Quarantines != 0 {
		t.Errorf("client errors tripped %d quarantines", m.Health.Quarantines)
	}
	// The hardware still works for well-formed queries.
	resp, err := serveQuery(t, n, 999, 4, brightHalfQuery(width, 1))
	if err != nil || resp.Class != 1 {
		t.Fatalf("clean query after error storm: resp=%+v err=%v", resp, err)
	}
}

// TestProbeDetectsSilentBiasRunaway runs the full detect→quarantine→relock→
// readmit loop on a noisy single-core NIC: a bias runaway yields well-formed
// but wrong responses, the periodic known-answer probe catches it, and
// self-healing restores service without a restart.
func TestProbeDetectsSilentBiasRunaway(t *testing.T) {
	const width = 64
	n, err := New(Config{
		Lanes: 2, Seed: 5, Cores: 1,
		ProbeEvery: 4, HealthWindow: 8,
		RelockBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	// Healthy phase: probes run every 4 queries and never flap the breaker
	// even with the calibrated noise model active.
	for i := 0; i < 40; i++ {
		if _, err := serveQuery(t, n, uint32(i+1), 4, brightHalfQuery(width, i%2)); err != nil {
			t.Fatalf("healthy query %d: %v", i, err)
		}
	}
	if m := n.Metrics(); m.Health.Probes == 0 || m.Health.ProbeFailures != 0 || m.Health.Quarantines != 0 {
		t.Fatalf("healthy phase health = %+v", m.Health)
	}
	if err := n.InjectFault(0, fault.BiasRunaway{Lane: 0, DeltaVolts: 2.2}); err != nil {
		t.Fatal(err)
	}
	// Keep serving: within one probe period the shard must quarantine, and
	// the recovery loop must relock and readmit it. Queries landing inside
	// the quarantine window get a typed Unavailable refusal (the recovery
	// usually wins the race against the next query, so that window may be
	// empty — TestUnavailableWhenAllShardsQuarantined pins the refusal path
	// deterministically).
	deadline := time.Now().Add(10 * time.Second)
	id := uint32(1000)
	for {
		id++
		if _, err := serveQuery(t, n, id, 4, brightHalfQuery(width, 0)); err != nil && !errors.Is(err, ErrUnavailable) {
			t.Fatalf("query %d failed with a non-availability error: %v", id, err)
		}
		m := n.Metrics()
		if m.Health.Quarantines >= 1 && m.Health.Readmissions >= 1 && m.Shards[0].State == ShardHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no quarantine+readmission cycle: %+v", m.Health)
		}
		time.Sleep(time.Millisecond)
	}
	m := n.Metrics()
	if m.Health.Relocks == 0 || m.Health.ProbeFailures == 0 {
		t.Errorf("recovery bookkeeping: %+v", m.Health)
	}
	// Healed hardware serves correctly again.
	resp, err := serveQuery(t, n, id+1, 4, brightHalfQuery(width, 1))
	if err != nil || resp.Class != 1 {
		t.Fatalf("post-recovery query: resp=%+v err=%v", resp, err)
	}
}

// TestUnavailableWhenAllShardsQuarantined: unhealable faults on every shard
// degrade the NIC to typed Unavailable errors — while client mistakes still
// get their own rejection, not Unavailable.
func TestUnavailableWhenAllShardsQuarantined(t *testing.T) {
	const width = 64
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 6, Cores: 2,
		RelockAttempts: 2, RelockBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := n.InjectFault(s, fault.DeadLane{Lane: 0}); err != nil {
			t.Fatal(err)
		}
	}
	errs := n.ProbeShards()
	for s, perr := range errs {
		if perr == nil {
			t.Fatalf("dead-lane shard %d passed its probe", s)
		}
	}
	// Recovery cannot relock a dead lane; wait for the attempts to finish.
	if err := n.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, err := serveQuery(t, n, 1, 4, brightHalfQuery(width, 0))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if resp == nil || !resp.Err {
		t.Fatalf("degraded response not Err-flagged: %+v", resp)
	}
	if _, err := serveQuery(t, n, 2, 99, []Code{1}); errors.Is(err, ErrUnavailable) || err == nil {
		t.Fatalf("client mistake answered with %v, want its own rejection", err)
	}
	m := n.Metrics()
	if m.Health.Unavailable == 0 || m.Health.RelockFailures < 4 {
		t.Errorf("degraded-mode bookkeeping: %+v", m.Health)
	}
	for s, h := range m.Shards {
		if h.State != ShardQuarantined || h.Readmissions != 0 {
			t.Errorf("shard %d = %+v, want permanently quarantined", s, h)
		}
	}
}

// TestConcurrentProbationReadmitsOnce drives a probation shard with many
// concurrent clean outcomes — the racing-verdict path only the serial tests
// used to exercise. Exactly one readmission must be counted no matter how the
// verdicts interleave, and the shard must land healthy.
func TestConcurrentProbationReadmitsOnce(t *testing.T) {
	const width = 64
	for round := 0; round < 10; round++ {
		n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 8, Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
			t.Fatal(err)
		}
		sh := n.shards[0]
		sh.breaker.Trip()
		sh.breaker.StartProbation()
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if _, err := serveQuery(t, n, uint32(g+1), 4, brightHalfQuery(width, g%2)); err != nil {
					t.Errorf("probation query %d: %v", g, err)
				}
			}(g)
		}
		wg.Wait()
		h := n.Metrics().Shards[0]
		if h.Readmissions != 1 {
			t.Fatalf("round %d: readmissions = %d, want exactly 1", round, h.Readmissions)
		}
		if h.State != ShardHealthy {
			t.Fatalf("round %d: state = %v after 16 clean outcomes", round, h.State)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInjectFaultValidatesShard guards the Applier seam.
func TestInjectFaultValidatesShard(t *testing.T) {
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 7, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InjectFault(2, fault.LaserSag{Factor: 0.5}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := n.InjectFault(-1, fault.LaserSag{Factor: 0.5}); err == nil {
		t.Error("negative shard accepted")
	}
}

// TestShardStateString keeps the stats output readable.
func TestShardStateString(t *testing.T) {
	for want, s := range map[string]ShardState{
		"healthy": ShardHealthy, "quarantined": ShardQuarantined, "probation": ShardProbation,
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if got := ShardState(9).String(); got != "ShardState(9)" {
		t.Errorf("unknown state prints %q", got)
	}
}

// TestCloseUnblocksRecoveryBackoff is the regression test for the untracked
// recovery-backoff hang the goleak/ctxflow sweep surfaced: recoverShard used
// to park in a bare time.Sleep between relock attempts, so a NIC being torn
// down while a dead lane backed off on a long schedule (RelockBackoff can be
// configured to minutes) left Drain waiting out the whole schedule. Close
// must retire the loop immediately: pre-fix this test times out its Drain
// context after two seconds instead of returning at once.
func TestCloseUnblocksRecoveryBackoff(t *testing.T) {
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 11, Cores: 1,
		RelockAttempts: 5, RelockBackoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InjectFault(0, fault.DeadLane{Lane: 0}); err != nil {
		t.Fatal(err)
	}
	// Trip the breaker: attempt 0 relocks (and fails — the lane is dead)
	// immediately, then the loop parks in its one-hour backoff.
	if errs := n.ProbeShards(); errs[0] == nil {
		t.Fatal("dead-lane shard passed its probe")
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatalf("Drain after Close = %v; recovery still parked in backoff", err)
	}
	// Idempotent, and a re-trip on a closed NIC must not respawn recovery.
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	n.shards[0].breaker.Reset()
	n.trip(n.shards[0])
	if got := n.recovering.Load(); got != 0 {
		t.Fatalf("trip after Close spawned recovery (recovering = %d)", got)
	}
}

// TestProbeLeavesServedNoiseAlone: a known-answer probe between two queries
// must not move the second query's noise. The probe's Step draws from the
// shard core's noise model; every served row seeks its own keyed stream, so
// query B's accumulators — noise on — are byte-identical whether or not a
// probe ran on the same core after query A.
func TestProbeLeavesServedNoiseAlone(t *testing.T) {
	const width, rows = 256, 16
	w := make(fixed.Matrix, rows)
	for j := range w {
		w[j] = make([]fixed.Signed, width)
		for i := range w[j] {
			w[j][i] = fixed.Signed{Mag: fixed.Code((i*37 + j*11) % 256), Neg: (i*j)%3 == 0}
		}
	}
	x := make([]fixed.Code, width)
	for i := range x {
		x[i] = fixed.Code((i*53 + 7) % 256)
	}
	run := func(probe bool) []fixed.Acc {
		n, err := New(Config{Lanes: 2, Seed: 7, Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.RegisterModel(4, "halves", halvesModel(64)); err != nil {
			t.Fatal(err)
		}
		if _, err := serveQuery(t, n, 1, 4, brightHalfQuery(64, 0)); err != nil {
			t.Fatal(err)
		}
		if probe {
			if errs := n.ProbeShards(); errs[0] != nil {
				t.Fatal(errs[0])
			}
		}
		sh := n.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.loader.Engine.ExecuteFCBias(w, nil, x, datapath.ActIdentity, 0).Raw
	}
	without, with := run(false), run(true)
	for j := range without {
		if with[j] != without[j] {
			t.Fatalf("query B's accumulators moved with a probe before it:\nwith:    %v\nwithout: %v", with, without)
		}
	}
}
