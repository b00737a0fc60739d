package fault

import (
	"errors"
	"testing"
	"time"
)

// recordingNodeApplier records injections and can fail selected nodes.
type recordingNodeApplier struct {
	got     []Event[NodeFault]
	failOn  int
	failErr error
}

func (a *recordingNodeApplier) InjectNodeFault(node int, f NodeFault) error {
	a.got = append(a.got, Event[NodeFault]{Unit: node, Fault: f})
	if a.failErr != nil && node == a.failOn {
		return a.failErr
	}
	return nil
}

func TestNodePlanEventsSortedStable(t *testing.T) {
	p := NewNodePlan().
		At(5, 0, NodeCrash{}).
		At(1, 1, NodePartition{On: true}).
		At(5, 2, NodeSlow{Latency: time.Millisecond}).
		At(1, 3, NodePartition{On: false})
	ev := p.Events()
	steps := []uint64{1, 1, 5, 5}
	nodes := []int{1, 3, 0, 2} // same-step events keep insertion order
	for i, e := range ev {
		if e.Step != steps[i] || e.Unit != nodes[i] {
			t.Fatalf("event %d = step %d node %d, want step %d node %d",
				i, e.Step, e.Unit, steps[i], nodes[i])
		}
	}
}

func TestNodeRunnerAdvance(t *testing.T) {
	p := NewNodePlan().
		At(0, 0, NodeCrash{}).
		At(2, 1, NodePartition{On: true}).
		At(2, 2, NodeSlow{Latency: time.Millisecond}).
		At(5, 0, NodeSlow{})
	a := &recordingNodeApplier{}
	r := NewNodeRunner(p, a)
	if r.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", r.Pending())
	}
	// Step-0 events fire on the first Advance.
	if fired := r.Advance(1); len(fired) != 1 || fired[0].Event.Unit != 0 {
		t.Fatalf("first advance fired %+v", fired)
	}
	// Both step-2 events fire together once the clock reaches 2, in
	// insertion order.
	fired := r.Advance(1)
	if len(fired) != 2 || fired[0].Event.Unit != 1 || fired[1].Event.Unit != 2 {
		t.Fatalf("step 2 fired %+v", fired)
	}
	if r.Clock() != 2 || r.Pending() != 1 {
		t.Fatalf("clock %d pending %d, want 2/1", r.Clock(), r.Pending())
	}
	// A big jump drains the rest; Fired holds everything in firing order.
	if fired := r.Advance(10); len(fired) != 1 {
		t.Fatalf("final advance fired %+v", fired)
	}
	if all := r.Fired(); len(all) != 4 || len(a.got) != 4 {
		t.Fatalf("Fired %d, applied %d, want 4/4", len(all), len(a.got))
	}
}

func TestNodeRunnerKeepsGoingPastErrors(t *testing.T) {
	boom := errors.New("no such node")
	a := &recordingNodeApplier{failOn: 1, failErr: boom}
	r := NewNodeRunner(NewNodePlan().At(1, 1, NodeCrash{}).At(1, 0, NodeCrash{}), a)
	fired := r.Advance(1)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want both despite the error", len(fired))
	}
	if !errors.Is(fired[0].Err, boom) || fired[1].Err != nil {
		t.Fatalf("errors = [%v, %v], want [boom, nil]", fired[0].Err, fired[1].Err)
	}
}

// TestNodeFaultsNeedTheirSurfaces: every node fault must refuse a target
// lacking the surface it acts on, instead of panicking or silently no-opping.
func TestNodeFaultsNeedTheirSurfaces(t *testing.T) {
	for _, f := range []NodeFault{
		NodeCrash{}, NodePartition{On: true}, NodeSlow{Latency: time.Millisecond},
	} {
		if err := f.ApplyNode(NodeTarget{}); err == nil {
			t.Errorf("%s applied to an empty target without error", f.Name())
		}
	}
}

func TestNodeCrashCallsHook(t *testing.T) {
	crashed := false
	tgt := NodeTarget{Crash: func() error { crashed = true; return nil }}
	if err := (NodeCrash{}).ApplyNode(tgt); err != nil || !crashed {
		t.Fatalf("crash hook: called=%v err=%v", crashed, err)
	}
}

// TestNodePartitionTogglesBlackhole drives the partition fault through a
// Conn and watches datagrams vanish, then flow again after the heal.
func TestNodePartitionTogglesBlackhole(t *testing.T) {
	inner := &memConn{}
	c := NewConn(inner, ConnConfig{Seed: 1})
	tgt := NodeTarget{Conn: c}
	if err := (NodePartition{On: true}).ApplyNode(tgt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo([]byte{1}, Addr{}); err != nil {
		t.Fatal(err)
	}
	if got := len(inner.written()); got != 0 {
		t.Fatalf("partitioned conn delivered %d datagrams", got)
	}
	if st := c.Stats(); st.Blackholed != 1 {
		t.Fatalf("Blackholed = %d, want 1", st.Blackholed)
	}
	if err := (NodePartition{On: false}).ApplyNode(tgt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo([]byte{2}, Addr{}); err != nil {
		t.Fatal(err)
	}
	if got := len(inner.written()); got != 1 {
		t.Fatalf("healed conn delivered %d datagrams, want 1", got)
	}
}

// TestNodeSlowInjectsLatency: the slow-node fault must actually delay the
// conn's traffic (lower-bound check only, to stay robust on loaded CI).
func TestNodeSlowInjectsLatency(t *testing.T) {
	inner := &memConn{}
	c := NewConn(inner, ConnConfig{Seed: 2})
	if err := (NodeSlow{Latency: 2 * time.Millisecond}).ApplyNode(NodeTarget{Conn: c}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := c.WriteTo([]byte{byte(i)}, Addr{}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("5 writes at 2ms injected latency took %v, want >= 10ms", elapsed)
	}
	// Zero values heal the straggler.
	if err := (NodeSlow{}).ApplyNode(NodeTarget{Conn: c}); err != nil {
		t.Fatal(err)
	}
}

// bitDiff counts differing bits between equal-length byte slices.
func bitDiff(a, b []byte) int {
	if len(a) != len(b) {
		return -1
	}
	n := 0
	for i := range a {
		for x := a[i] ^ b[i]; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}
