package lightning

// Chaos suite: seeded fault plans driven through internal/fault against
// live NICs. Every test here is deterministic for its fixed seeds (the CI
// chaos job runs the suite repeatedly under the race detector), and the
// names share the TestChaos prefix so the job can select them.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
)

// TestChaosBiasRunawayQuarantineRelockReadmit is the acceptance scenario: a
// four-core NIC serves a fixed query stream while a seeded fault plan wrecks
// one shard's modulator bias mid-run. The probe sweep quarantines exactly
// that shard, the survivors keep serving — every response identical to a
// fault-free twin's, so accuracy is unchanged — and the recovery loop
// relocks, probes and readmits the shard back into rotation.
func TestChaosBiasRunawayQuarantineRelockReadmit(t *testing.T) {
	const (
		width     = 64
		phaseA    = 40
		phaseB    = 60
		faultedAt = phaseA
	)
	cfg := Config{
		Lanes: 2, Noiseless: true, Seed: 21, Cores: 4,
		ProbeEvery: 8, HealthWindow: 8,
		RelockBackoff: time.Millisecond,
	}
	newNIC := func() *NIC {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n, twin := newNIC(), newNIC()

	plan := fault.NewPlan().At(faultedAt, 2, fault.BiasRunaway{Lane: 0, DeltaVolts: 2.2})
	runner := fault.NewRunner(plan, n)

	serveBoth := func(id uint32) {
		t.Helper()
		class := int(id) % 2
		q := brightHalfQuery(width, class)
		got, err := serveQuery(t, n, id, 4, q)
		if err != nil {
			t.Fatalf("query %d: %v", id, err)
		}
		want, err := serveQuery(t, twin, id, 4, q)
		if err != nil {
			t.Fatalf("twin query %d: %v", id, err)
		}
		if got.Class != uint16(class) {
			t.Fatalf("query %d class = %d, want %d", id, got.Class, class)
		}
		if got.Class != want.Class || got.Err != want.Err || !bytes.Equal(got.Probs, want.Probs) {
			t.Fatalf("query %d response diverged from fault-free twin: %+v vs %+v", id, got, want)
		}
	}

	// Phase A: fault-free serving; the plan clock advances per query.
	id := uint32(0)
	for i := 0; i < phaseA; i++ {
		id++
		serveBoth(id)
		if fired := runner.Advance(1); len(fired) != 0 && i != faultedAt-1 {
			t.Fatalf("plan fired early at query %d: %v", id, fired)
		}
	}
	fired := runner.Fired()
	if len(fired) != 1 || fired[0].Err != nil {
		t.Fatalf("fault plan fired %v, want the one bias runaway", fired)
	}
	// Detection sweep: exactly the wrecked shard trips.
	errs := n.ProbeShards()
	for s, perr := range errs {
		if (perr != nil) != (s == 2) {
			t.Fatalf("probe sweep shard %d: %v", s, perr)
		}
	}
	if got := n.Metrics().Shards[2].State; got == ShardHealthy {
		t.Fatal("wrecked shard still healthy after probe sweep")
	}

	// Phase B: survivors serve; accuracy unchanged versus the twin.
	for i := 0; i < phaseB; i++ {
		id++
		serveBoth(id)
	}

	// Self-healing: relock + probe + probation trials readmit shard 2.
	deadline := time.Now().Add(10 * time.Second)
	for n.Metrics().Shards[2].State != ShardHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("shard 2 never readmitted: %+v", n.Metrics().Shards[2])
		}
		id++
		serveBoth(id)
		time.Sleep(time.Millisecond)
	}
	m := n.Metrics()
	h := m.Shards[2]
	if h.Quarantines != 1 || h.Readmissions != 1 || h.Relocks < 1 {
		t.Errorf("shard 2 recovery bookkeeping: %+v", h)
	}
	for _, s := range []int{0, 1, 3} {
		if m.Shards[s].Quarantines != 0 {
			t.Errorf("healthy shard %d was quarantined", s)
		}
	}
	if tm := twin.Metrics(); tm.Health.Quarantines != 0 || tm.Health.ProbeFailures != 0 {
		t.Errorf("fault-free twin tripped: %+v", tm.Health)
	}
	// Readmitted hardware serves correctly.
	id++
	serveBoth(id)
}

// TestChaosDeadLaneSurvivorsKeepServing: an unhealable fault (dead lane)
// leaves its shard permanently quarantined after the relock attempts run
// out, while the surviving shard serves every query correctly.
func TestChaosDeadLaneSurvivorsKeepServing(t *testing.T) {
	const width = 64
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 22, Cores: 2,
		RelockAttempts: 2, RelockBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	runner := fault.NewRunner(fault.NewPlan().At(0, 1, fault.DeadLane{Lane: 1}), n)
	if fired := runner.Step(); len(fired) != 1 || fired[0].Err != nil {
		t.Fatalf("injection: %v", fired)
	}
	if errs := n.ProbeShards(); errs[0] != nil || errs[1] == nil {
		t.Fatalf("probe sweep = %v, want only shard 1 tripped", errs)
	}
	if err := n.Drain(t.Context()); err != nil { // recovery attempts exhaust
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		resp, err := serveQuery(t, n, uint32(i+1), 4, brightHalfQuery(width, i%2))
		if err != nil || int(resp.Class) != i%2 {
			t.Fatalf("survivor query %d: resp=%+v err=%v", i, resp, err)
		}
	}
	m := n.Metrics()
	if m.Shards[1].State != ShardQuarantined || m.Shards[1].RelockFailures != 2 {
		t.Errorf("dead shard = %+v, want quarantined with 2 relock failures", m.Shards[1])
	}
	if m.Shards[0].Served != 20 || m.Shards[1].Served != 0 {
		t.Errorf("served split %d/%d, want 20/0", m.Shards[0].Served, m.Shards[1].Served)
	}
}

// TestChaosBatchQuarantineMidBatch: a shard breaker opening while a partial
// batch still waits in admission must not drop a single query. Shard choice
// happens when the batch is popped, so the parked batch re-routes to the
// survivor and every response comes back correct.
func TestChaosBatchQuarantineMidBatch(t *testing.T) {
	const (
		width = 64
		k     = 5 // strictly fewer than MaxBatch: the batch stays parked
	)
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 26, Cores: 2,
		RelockAttempts: 1, RelockBackoff: time.Millisecond,
		Batch: BatchConfig{MaxBatch: 8, MaxDelay: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	// Park k queries in admission behind the (never-firing) delay.
	conn, errOf := servePool(t, n, 8)
	payloads := make([][]Code, k)
	for i := range payloads {
		payloads[i] = brightHalfQuery(width, i%2)
	}
	conn.in <- codeQueries(t, 4, payloads...)
	for i := 0; i < 10000 && queued(n) != k; i++ {
		time.Sleep(50 * time.Microsecond)
	}
	if got := queued(n); got != k {
		t.Fatalf("pending = %d, want %d parked mid-batch", got, k)
	}
	// Mid-batch chaos: wreck shard 0 and trip its breaker while the batch
	// is still queued.
	runner := fault.NewRunner(fault.NewPlan().At(0, 0, fault.DeadLane{Lane: 1}), n)
	if fired := runner.Step(); len(fired) != 1 || fired[0].Err != nil {
		t.Fatalf("injection: %v", fired)
	}
	if errs := n.ProbeShards(); errs[0] == nil || errs[1] != nil {
		t.Fatalf("probe sweep = %v, want only shard 0 tripped", errs)
	}
	// Drain releases the parked batch; the pop-time pick must route it to
	// the surviving shard.
	if err := n.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	got := conn.responses(t, k)
	resps := make([]*Response, k)
	errs := make([]error, k)
	for i := range resps {
		resps[i], errs[i] = got[uint32(i+1)], errOf(uint32(i+1))
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d dropped across quarantine: %v", i+1, errs[i])
		}
		if resps[i] == nil || resps[i].Err || int(resps[i].Class) != i%2 {
			t.Fatalf("query %d re-routed wrong: %+v", i+1, resps[i])
		}
	}
	m := n.Metrics()
	if m.Shards[0].State != ShardQuarantined {
		t.Fatalf("shard 0 state = %v, want quarantined", m.Shards[0].State)
	}
	if m.Shards[0].Served != 0 || m.Shards[1].Served != uint64(k) {
		t.Fatalf("served split %d/%d, want 0/%d (batch re-routed whole)",
			m.Shards[0].Served, m.Shards[1].Served, k)
	}
	if m.Batch.DrainFlushes == 0 || queued(n) != 0 {
		t.Fatalf("batch accounting after re-route: %+v pending=%d", m.Batch, queued(n))
	}
}

// TestChaosBatchAllQuarantinedDegradedPerRequest: when every shard is
// quarantined, a batch released from admission must still answer each
// request individually with an Err-flagged response and ErrUnavailable —
// degraded mode speaks per request, never per batch, and never silently.
func TestChaosBatchAllQuarantinedDegradedPerRequest(t *testing.T) {
	const (
		width = 64
		k     = 3
	)
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 27, Cores: 1,
		RelockAttempts: 1, RelockBackoff: time.Millisecond,
		Batch: BatchConfig{MaxBatch: 8, MaxDelay: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	runner := fault.NewRunner(fault.NewPlan().At(0, 0, fault.DeadLane{Lane: 0}), n)
	if fired := runner.Step(); len(fired) != 1 || fired[0].Err != nil {
		t.Fatalf("injection: %v", fired)
	}
	if errs := n.ProbeShards(); errs[0] == nil {
		t.Fatal("probe sweep missed the dead lane")
	}
	if err := n.Drain(t.Context()); err != nil { // recovery attempts exhaust
		t.Fatal(err)
	}
	conn, errOf := servePool(t, n, 8)
	payloads := make([][]Code, k)
	for i := range payloads {
		payloads[i] = brightHalfQuery(width, i%2)
	}
	conn.in <- codeQueries(t, 4, payloads...)
	for i := 0; i < 10000 && queued(n) != k; i++ {
		time.Sleep(50 * time.Microsecond)
	}
	if err := n.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	got := conn.responses(t, k)
	resps := make([]*Response, k)
	errs := make([]error, k)
	for i := range resps {
		resps[i], errs[i] = got[uint32(i+1)], errOf(uint32(i+1))
	}
	for i := 0; i < k; i++ {
		if !errors.Is(errs[i], ErrUnavailable) {
			t.Fatalf("query %d error = %v, want ErrUnavailable", i+1, errs[i])
		}
		if resps[i] == nil || !resps[i].Err || resps[i].RequestID != uint32(i+1) {
			t.Fatalf("query %d degraded response = %+v, want its own Err-flagged response", i+1, resps[i])
		}
	}
	m := n.Metrics()
	if m.Health.Unavailable != k {
		t.Fatalf("unavailable = %d, want %d (one per batched request)", m.Health.Unavailable, k)
	}
	if m.Served != 0 {
		t.Fatalf("served = %d through a fully quarantined NIC", m.Served)
	}
}

// TestChaosMemReadErrorBurstRecovers: a DRAM read-error burst degrades every
// shard (the weight store is shared), queries fail loudly with Err verdicts
// until the windowed score quarantines the shards, and once the burst is
// spent the probation trials readmit them and service recovers end to end.
func TestChaosMemReadErrorBurstRecovers(t *testing.T) {
	const (
		width = 64
		burst = 16
	)
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 23, Cores: 2,
		HealthWindow: 4, RelockBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	runner := fault.NewRunner(fault.NewPlan().At(0, 0, fault.ReadErrorBurst{Reads: burst}), n)
	if fired := runner.Step(); len(fired) != 1 || fired[0].Err != nil {
		t.Fatalf("injection: %v", fired)
	}
	// Serve until the NIC has chewed through the burst and fully healed.
	deadline := time.Now().Add(10 * time.Second)
	id := uint32(0)
	for {
		id++
		resp, err := serveQuery(t, n, id, 4, brightHalfQuery(width, int(id)%2))
		if err == nil && int(resp.Class) != int(id)%2 {
			t.Fatalf("query %d served wrong class %d", id, resp.Class)
		}
		m := n.Metrics()
		if m.DRAMFaultedReads == burst &&
			m.Shards[0].State == ShardHealthy && m.Shards[1].State == ShardHealthy &&
			err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery from read-error burst: faulted=%d shards=%+v",
				m.DRAMFaultedReads, m.Shards)
		}
		time.Sleep(time.Millisecond)
	}
	m := n.Metrics()
	if m.Health.Quarantines == 0 || m.Health.Readmissions == 0 {
		t.Errorf("burst never cycled a breaker: %+v", m.Health)
	}
	// Every faulted read surfaced as a loud per-shard error, never a
	// silent wrong answer (checked per query above).
	var errsSeen uint64
	for _, h := range m.Shards {
		errsSeen += h.Errors
	}
	if errsSeen == 0 {
		t.Error("burst produced no per-shard error accounting")
	}
}

// TestChaosLossyNetworkLiveServe runs the live serve path (ServeUDP on a
// real socket) behind a seeded lossy wrapper dropping and duplicating
// datagrams in both directions. The retrying client must land every query
// with the correct answer, and network chaos must never masquerade as
// hardware trouble: zero quarantines, zero probe failures.
func TestChaosLossyNetworkLiveServe(t *testing.T) {
	const width = 64
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 24, Cores: 2, ProbeEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	pc := fault.NewConn(inner, fault.ConnConfig{Seed: 24, RxDrop: 0.25, TxDrop: 0.25, TxDup: 0.25})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, pc) }()

	client, err := Dial(inner.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 250 * time.Millisecond
	client.Retries = 8
	client.RetryBackoff = 5 * time.Millisecond

	const queries = 40
	for i := 0; i < queries; i++ {
		resp, _, err := client.Infer(4, brightHalfQuery(width, i%2))
		if err != nil {
			t.Fatalf("query %d through lossy network: %v", i, err)
		}
		if int(resp.Class) != i%2 {
			t.Fatalf("query %d class = %d, want %d", i, resp.Class, i%2)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	st := pc.Stats()
	if st.RxDropped == 0 || st.TxDropped == 0 || st.TxDuplicated == 0 {
		t.Errorf("lossy wrapper injected nothing: %+v", st)
	}
	m := n.Metrics()
	if m.Health.Quarantines != 0 || m.Health.ProbeFailures != 0 {
		t.Errorf("network chaos tripped shard health: %+v", m.Health)
	}
	if m.Served < queries {
		t.Errorf("Served = %d, want >= %d", m.Served, queries)
	}
}

// TestChaosScatterSoakConvergesHealthy scatters a seeded volley of
// recoverable analog faults across a four-core NIC under continuous load.
// Whatever the interleaving, the invariant holds: the system converges back
// to all-healthy, every response is either a success or a typed error, and
// the fired fault sequence is reproducible for the seed.
func TestChaosScatterSoakConvergesHealthy(t *testing.T) {
	const (
		width   = 64
		queries = 200
	)
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 25, Cores: 4,
		ProbeEvery: 8, HealthWindow: 8,
		RelockBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	mk := func(i int) fault.Fault {
		switch i % 3 {
		case 0:
			return fault.BiasRunaway{Lane: i % 2, DeltaVolts: 1.5}
		case 1:
			return fault.LaserSag{Factor: 0.6}
		default:
			return fault.DriftBurst{StepVolts: 0.08, Steps: 40, Seed: uint64(100 + i)}
		}
	}
	plan := fault.NewPlan().Scatter(25, 6, queries, 4, mk)
	runner := fault.NewRunner(plan, n)
	if other := fault.NewPlan().Scatter(25, 6, queries, 4, mk); len(other.Events()) != len(plan.Events()) {
		t.Fatal("scatter not reproducible")
	}
	for i := 0; i < queries; i++ {
		for _, f := range runner.Advance(1) {
			if f.Err != nil {
				t.Fatalf("injection %v failed: %v", f.Event, f.Err)
			}
		}
		if _, err := serveQuery(t, n, uint32(i+1), 4, brightHalfQuery(width, i%2)); err != nil &&
			!errors.Is(err, ErrUnavailable) {
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
	}
	if runner.Pending() != 0 {
		t.Fatalf("%d planned faults never fired", runner.Pending())
	}
	// Sweep and wait: all faults here are relock-healable, so the NIC must
	// converge to four healthy shards.
	n.ProbeShards()
	deadline := time.Now().Add(10 * time.Second)
	id := uint32(queries)
	for {
		healthy := 0
		for _, h := range n.Metrics().Shards {
			if h.State == ShardHealthy {
				healthy++
			}
		}
		if healthy == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: %+v", n.Metrics().Shards)
		}
		id++
		if _, err := serveQuery(t, n, id, 4, brightHalfQuery(width, 0)); err != nil &&
			!errors.Is(err, ErrUnavailable) {
			t.Fatalf("convergence query: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// Post-chaos, the hardware answers correctly again.
	for i := 0; i < 8; i++ {
		id++
		resp, err := serveQuery(t, n, id, 4, brightHalfQuery(width, i%2))
		if err != nil || int(resp.Class) != i%2 {
			t.Fatalf("post-chaos query: resp=%+v err=%v", resp, err)
		}
	}
}
