package cluster

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/health"
)

// The cluster chaos suite: deterministic node-fault plans (internal/fault's
// NodePlan/NodeRunner) driven against an in-process cluster, with every
// completed answer judged byte-for-byte against a fault-free monolithic
// twin. The invariant under test is the cluster plane's contract: partial
// failure may cost goodput, but a completed response is either exactly the
// monolith's answer or explicitly Err-flagged — never a silent wrong answer.

// TestClusterChaosKillOneNode is the acceptance gate: a seeded fault plan
// crashes one of three nodes mid-load; the coordinator must re-plan onto the
// survivors, keep goodput at >= 90% of the fault-free twin, and complete
// zero silently-wrong responses.
func TestClusterChaosKillOneNode(t *testing.T) {
	const (
		modelID = 9
		seed    = uint64(21)
		queries = 100
	)
	h := startHarness(t, 3, seed)
	model := lightning.SyntheticDeepHalvesModel(32, 6)
	coord, err := New(Config{
		Nodes: h.addrs, Model: model, ModelID: modelID, Seed: seed,
		Budget: 3 * time.Second, InstallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	twin := twinNIC(t, model, modelID, seed)

	// The deterministic fault plan: node 1 fail-stops after the 30th
	// completed query. The runner's clock advances once per query, so the
	// crash lands at the same point in the load every run.
	runner := fault.NewNodeRunner(fault.NewNodePlan().At(30, 1, fault.NodeCrash{}), h)

	rng := rand.New(rand.NewPCG(seed, 3))
	completed, wrong := 0, 0
	for i := 0; i < queries; i++ {
		q := randQuery(rng, 32)
		resp, err := coord.Infer(context.Background(), q)
		if err == nil {
			completed++
			if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
				wrong++
				t.Errorf("query %d: silent wrong answer: class %d probs %v, twin class %d probs %v",
					i, resp.Class, resp.Probs, want.Class, want.Probs)
			}
		} else if resp == nil || !resp.Err {
			t.Errorf("query %d failed (%v) without an Err-flagged response", i, err)
		}
		for _, f := range runner.Advance(1) {
			if f.Err != nil {
				t.Fatalf("injecting %s on node %d: %v", f.Event.Fault.Name(), f.Event.Node, f.Err)
			}
			t.Logf("query %d: injected %s on node %d", i, f.Event.Fault.Name(), f.Event.Node)
		}
	}

	if wrong != 0 {
		t.Fatalf("%d silently wrong answers — the one outcome the cluster plane must never produce", wrong)
	}
	// The fault-free twin completes every query, so its goodput is the full
	// load; the cluster must keep >= 90% of it through the crash.
	if min := queries * 9 / 10; completed < min {
		t.Fatalf("goodput %d/%d, want >= %d (90%% of the fault-free twin)", completed, queries, min)
	}
	m := coord.Metrics()
	if m.Replans < 2 {
		t.Errorf("Replans = %d, want >= 2 (initial placement + post-crash re-plan)", m.Replans)
	}
	if st := m.Nodes[1].State; st != health.Quarantined {
		t.Errorf("crashed node state %v, want quarantined", st)
	}
	for _, i := range []int{0, 2} {
		if st := m.Nodes[i].State; st == health.Quarantined {
			t.Errorf("surviving node %d is quarantined", i)
		}
	}
	t.Logf("goodput %d/%d, replans %d, restarts %d, hop retries %d",
		completed, queries, m.Replans, m.Restarts, m.HopRetries)
}

// TestClusterChaosPartitionHealReadmission: a partitioned (blackholed) node
// is quarantined and routed around; when the partition heals, the recovery
// loop's known-answer probe readmits it and the plan folds it back in.
func TestClusterChaosPartitionHealReadmission(t *testing.T) {
	const (
		modelID = 9
		seed    = uint64(23)
	)
	h := startHarness(t, 2, seed)
	model := lightning.SyntheticDeepHalvesModel(32, 2)
	coord, err := New(Config{
		Nodes: h.addrs, Model: model, ModelID: modelID, Seed: seed,
		Budget:           time.Second,
		InstallTimeout:   time.Second,
		RecoveryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	twin := twinNIC(t, model, modelID, seed)
	rng := rand.New(rand.NewPCG(seed, 4))

	infer := func(i int) {
		t.Helper()
		q := randQuery(rng, 32)
		resp, err := coord.Infer(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
			t.Fatalf("query %d: class %d, twin class %d", i, resp.Class, want.Class)
		}
	}
	infer(0) // the two-stage plan works

	if err := h.InjectNodeFault(1, fault.NodePartition{On: true}); err != nil {
		t.Fatal(err)
	}
	// The next queries discover the partition: the hop times out, node 1
	// trips, and the plan shrinks onto node 0. Everything still completes
	// correctly (the first may burn its budget discovering; allow a few).
	deadline := time.Now().Add(30 * time.Second)
	for coord.Metrics().Nodes[1].State != health.Quarantined {
		if time.Now().After(deadline) {
			t.Fatal("node 1 never quarantined under partition")
		}
		q := randQuery(rng, 32)
		if resp, err := coord.Infer(context.Background(), q); err == nil {
			if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
				t.Fatalf("mid-partition silent wrong answer: class %d, twin %d", resp.Class, want.Class)
			}
		}
	}
	if m := coord.Metrics(); m.Stages != 1 {
		t.Fatalf("post-trip Stages = %d, want 1 (whole model on the survivor)", m.Stages)
	}
	infer(1) // degraded-capacity service is still byte-correct

	// Heal. The recovery loop replays node 1's known-answer baseline —
	// still installed, still correct — and readmits it into probation; the
	// re-plan stretches the pipeline back to two stages.
	if err := h.InjectNodeFault(1, fault.NodePartition{On: false}); err != nil {
		t.Fatal(err)
	}
	for {
		m := coord.Metrics()
		if m.Nodes[1].State != health.Quarantined && m.Stages == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 1 never readmitted after heal: %+v", m.Nodes[1])
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		infer(2 + i)
	}
	m := coord.Metrics()
	if m.Nodes[1].State == health.Quarantined {
		t.Fatalf("node 1 fell back to quarantine after heal: %+v", m.Nodes[1])
	}
	if m.Nodes[1].Readmissions < 1 {
		t.Errorf("node 1 readmissions = %d, want >= 1", m.Nodes[1].Readmissions)
	}
}

// TestClusterChaosSlowNodeHedged: a straggler node does not fail — it is
// just slow. With replication and a hedge delay, the coordinator duplicates
// the slow hop onto the replica and the fast answer wins, keeping responses
// byte-correct without waiting out the straggler.
func TestClusterChaosSlowNodeHedged(t *testing.T) {
	const (
		modelID = 9
		seed    = uint64(27)
	)
	h := startHarness(t, 2, seed)
	model := lightning.SyntheticDeepHalvesModel(32, 2)
	coord, err := New(Config{
		Nodes: h.addrs, Model: model, ModelID: modelID, Seed: seed,
		Replicate: true, Hedge: 15 * time.Millisecond,
		Budget: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	twin := twinNIC(t, model, modelID, seed)

	if err := h.InjectNodeFault(1, fault.NodeSlow{Latency: 150 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 5))
	for i := 0; i < 8; i++ {
		q := randQuery(rng, 32)
		resp, err := coord.Infer(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
			t.Fatalf("query %d: hedged answer class %d, twin class %d", i, resp.Class, want.Class)
		}
	}
	if m := coord.Metrics(); m.Hedges == 0 {
		t.Error("no hedged dispatches against a 150ms straggler with a 15ms hedge delay")
	}
}

// TestClusterChaosCorruptComputeQuarantined: the nastiest failure mode is a
// node that stays prompt and well-formed while computing wrong answers — a
// bias runaway in its analog hardware. Timeouts never fire; only the
// known-answer probe (replaying the install-time baseline on the breaker's
// cadence) can catch it. Exposure is bounded by the probe cadence: once the
// probe trips the node, the plan shrinks onto the clean survivor, answers
// are byte-correct again, and the corrupted node stays quarantined — its
// readmission probe keeps failing, because reachability without integrity
// is not recovery.
func TestClusterChaosCorruptComputeQuarantined(t *testing.T) {
	const (
		modelID    = 9
		seed       = uint64(29)
		probeEvery = 4
	)
	h := startHarness(t, 2, seed)
	model := lightning.SyntheticDeepHalvesModel(32, 2)
	coord, err := New(Config{
		Nodes: h.addrs, Model: model, ModelID: modelID, Seed: seed,
		Budget:           time.Second,
		ProbeEvery:       probeEvery,
		RecoveryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	twin := twinNIC(t, model, modelID, seed)
	rng := rand.New(rand.NewPCG(seed, 6))

	// Clean service first, so the baselines predate the corruption.
	for i := 0; i < 3; i++ {
		q := randQuery(rng, 32)
		resp, err := coord.Infer(context.Background(), q)
		if err != nil {
			t.Fatalf("clean query %d: %v", i, err)
		}
		if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
			t.Fatalf("clean query %d: class %d, twin class %d", i, resp.Class, want.Class)
		}
	}

	// Corrupt node 1's analog compute. The node keeps answering promptly —
	// wrongly — so only the known-answer probe can unmask it.
	if err := h.nodes[1].nic.InjectFault(0, fault.BiasRunaway{Lane: 0, DeltaVolts: 2.2}); err != nil {
		t.Fatal(err)
	}
	wrongBefore, wrongAfter := 0, 0
	for i := 0; i < 40; i++ {
		quarantined := coord.Metrics().Nodes[1].State == health.Quarantined
		q := randQuery(rng, 32)
		resp, err := coord.Infer(context.Background(), q)
		if err != nil {
			if resp == nil || !resp.Err {
				t.Errorf("query %d failed (%v) without an Err-flagged response", i, err)
			}
			continue
		}
		if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
			if quarantined {
				wrongAfter++
			} else {
				wrongBefore++
			}
		}
	}
	m := coord.Metrics()
	if m.Nodes[1].State != health.Quarantined {
		t.Fatalf("corrupted node never quarantined: %+v (probe failures %d)",
			m.Nodes[1].State, m.Nodes[1].ProbeFailures)
	}
	if m.Nodes[1].ProbeFailures == 0 {
		t.Error("no probe failures recorded against the corrupted node")
	}
	// Exposure is bounded by the probe cadence: the corrupted node serves at
	// most ~probeEvery stage calls before its probe fires and unmasks it.
	if wrongBefore > 2*probeEvery {
		t.Errorf("%d wrong answers before quarantine, want <= %d (probe-cadence bound)",
			wrongBefore, 2*probeEvery)
	}
	if wrongAfter != 0 {
		t.Fatalf("%d wrong answers after quarantine — the survivor plan must be byte-correct", wrongAfter)
	}
	t.Logf("wrong before quarantine %d (cadence %d), probes %d/%d failed",
		wrongBefore, probeEvery, m.Nodes[1].Probes, m.Nodes[1].ProbeFailures)
}
