package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/health"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// testNode is one in-process serving NIC behind a fault.Conn — the cluster
// harness's stand-in for a lightning-serve process on a lossy network.
type testNode struct {
	nic    *lightning.NIC
	pc     net.PacketConn
	conn   *fault.Conn
	cancel context.CancelFunc
	done   chan error

	crashOnce sync.Once
}

// crash is the harness's fail-stop kill switch: cancel the serve loop, close
// the socket, and wait for the loop to exit — after which the node's port is
// dead and the coordinator's datagrams bounce.
func (n *testNode) crash() error {
	n.crashOnce.Do(func() {
		n.cancel()
		_ = n.pc.Close()
		select {
		case <-n.done:
		case <-time.After(10 * time.Second):
		}
	})
	return nil
}

// harness runs a small cluster of in-process NICs and implements
// fault.NodeApplier so node-fault plans drive it.
type harness struct {
	nodes []*testNode
	addrs []string
}

// startHarness spins up n serving NICs on loopback UDP, each accepting wire
// model installs (as lightning-serve -model none does) and each behind a
// fault.Conn for partition and slow-node injection.
func startHarness(t *testing.T, n int, seed uint64) *harness {
	t.Helper()
	h := &harness{}
	for i := 0; i < n; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("node %d listen: %v", i, err)
		}
		fc := fault.NewConn(pc, fault.ConnConfig{Seed: seed + uint64(i)})
		srv, err := lightning.New(lightning.Config{
			Lanes: 2, Noiseless: true, Seed: seed, AllowModelInstall: true,
		})
		if err != nil {
			t.Fatalf("node %d NIC: %v", i, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.ServeUDPWorkers(ctx, fc, 2) }()
		h.nodes = append(h.nodes, &testNode{nic: srv, pc: pc, conn: fc, cancel: cancel, done: done})
		h.addrs = append(h.addrs, pc.LocalAddr().String())
	}
	t.Cleanup(h.stop)
	return h
}

func (h *harness) stop() {
	for _, n := range h.nodes {
		_ = n.crash()
		_ = n.nic.Close()
	}
}

// InjectNodeFault implements fault.NodeApplier over the harness's nodes.
func (h *harness) InjectNodeFault(node int, f fault.NodeFault) error {
	if node < 0 || node >= len(h.nodes) {
		return errors.New("harness: no such node")
	}
	n := h.nodes[node]
	return f.ApplyNode(fault.NodeTarget{Conn: n.conn, Crash: n.crash})
}

// twinNIC builds the fault-free monolithic twin: the same model on one
// in-process noiseless NIC, the oracle every cluster answer is judged
// against.
func twinNIC(t *testing.T, model *lightning.TrainedModel, modelID uint16, seed uint64) *lightning.NIC {
	t.Helper()
	n, err := lightning.New(lightning.Config{Lanes: 2, Noiseless: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(modelID, "twin", model); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// twinAnswer runs one query on the monolithic twin.
func twinAnswer(t *testing.T, twin *lightning.NIC, modelID uint16, query []byte) *nic.Response {
	t.Helper()
	resp, err := twin.HandleMessage(&nic.Message{RequestID: 1, ModelID: modelID, Payload: query})
	if err != nil || resp == nil || resp.Err {
		t.Fatalf("twin answer: resp=%+v err=%v", resp, err)
	}
	return resp
}

func randQuery(rng *rand.Rand, width int) []byte {
	q := make([]byte, width)
	for i := range q {
		q[i] = byte(rng.UintN(256))
	}
	return q
}

// sameAnswer reports byte-correctness against the twin: class and every
// probability code identical.
func sameAnswer(got, want *nic.Response) bool {
	return got.Class == want.Class && bytes.Equal(got.Probs, want.Probs)
}

// TestClusterMatchesMonolith is the partition-equivalence gate: a model split
// across two noiseless nodes must answer byte-identically to the monolithic
// NIC for every query — partitioning is a placement decision, never a
// numerics change.
func TestClusterMatchesMonolith(t *testing.T) {
	const modelID, seed = 4, uint64(11)
	h := startHarness(t, 2, seed)
	model := lightning.SyntheticDeepHalvesModel(32, 4)
	coord, err := New(Config{Nodes: h.addrs, Model: model, ModelID: modelID, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if m := coord.Metrics(); m.Stages != 2 {
		t.Fatalf("Stages = %d, want 2", m.Stages)
	}
	twin := twinNIC(t, model, modelID, seed)
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < 40; i++ {
		q := randQuery(rng, 32)
		resp, err := coord.Infer(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.ModelID != modelID {
			t.Fatalf("query %d: response model %d, want %d", i, resp.ModelID, modelID)
		}
		if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
			t.Fatalf("query %d: cluster answered class %d probs %v, twin class %d probs %v",
				i, resp.Class, resp.Probs, want.Class, want.Probs)
		}
	}
	m := coord.Metrics()
	if m.Served != 40 || m.Degraded != 0 {
		t.Fatalf("served %d degraded %d, want 40/0", m.Served, m.Degraded)
	}
}

// TestClusterWidthRejectionLocal: a malformed query is a client mistake; it
// must be rejected at the front door without ever touching a node — node
// breakers only see node-attributable outcomes.
func TestClusterWidthRejectionLocal(t *testing.T) {
	h := startHarness(t, 2, 13)
	coord, err := New(Config{Nodes: h.addrs, Model: lightning.SyntheticDeepHalvesModel(32, 2), ModelID: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	resp, err := coord.Infer(context.Background(), make([]byte, 7))
	if err == nil || resp == nil || !resp.Err {
		t.Fatalf("short query: resp=%+v err=%v, want Err-flagged rejection", resp, err)
	}
	for i, n := range coord.Metrics().Nodes {
		if n.Served != 0 {
			t.Errorf("node %d served %d stage calls from a local rejection", i, n.Served)
		}
		if n.State != health.Healthy {
			t.Errorf("node %d state %v after a client mistake", i, n.State)
		}
	}
}

// TestClusterNoViablePlanHonest: with every node gone the coordinator must
// keep answering — with explicit Err-flagged responses and ErrNoViablePlan,
// never by hanging and never with fabricated output.
func TestClusterNoViablePlanHonest(t *testing.T) {
	h := startHarness(t, 1, 17)
	coord, err := New(Config{
		Nodes: h.addrs, Model: lightning.SyntheticDeepHalvesModel(32, 2), ModelID: 4,
		Seed: 17, Budget: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := h.InjectNodeFault(0, fault.NodeCrash{}); err != nil {
		t.Fatal(err)
	}
	q := make([]byte, 32)
	// The first query discovers the crash: its hop fails, trips the only
	// node, and the re-plan comes up empty.
	resp, err := coord.Infer(context.Background(), q)
	if err == nil || resp == nil || !resp.Err {
		t.Fatalf("post-crash query: resp=%+v err=%v, want honest failure", resp, err)
	}
	// Every later query degrades immediately on the nil plan.
	resp, err = coord.Infer(context.Background(), q)
	if !errors.Is(err, ErrNoViablePlan) || resp == nil || !resp.Err {
		t.Fatalf("nil-plan query: resp=%+v err=%v, want ErrNoViablePlan", resp, err)
	}
	if m := coord.Metrics(); m.Degraded < 2 {
		t.Fatalf("Degraded = %d, want >= 2", m.Degraded)
	}
}

// TestClusterFrontDoorServeUDP drives the coordinator through its UDP front
// door with the stock root-package Client — proving the cluster is wire-
// compatible with a single NIC, including the Err flag for unknown models.
func TestClusterFrontDoorServeUDP(t *testing.T) {
	const modelID, seed = 4, uint64(19)
	h := startHarness(t, 2, seed)
	model := lightning.SyntheticDeepHalvesModel(32, 3)
	coord, err := New(Config{Nodes: h.addrs, Model: model, ModelID: modelID, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	front, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- coord.ServeUDP(ctx, front, 2) }()
	defer func() {
		cancel()
		if err := <-serveDone; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
	}()

	client, err := lightning.Dial(front.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 2 * time.Second
	client.Retries = 2

	twin := twinNIC(t, model, modelID, seed)
	rng := rand.New(rand.NewPCG(seed, 2))
	for i := 0; i < 10; i++ {
		q := randQuery(rng, 32)
		payload := make([]lightning.Code, len(q))
		for j, b := range q {
			payload[j] = lightning.Code(b)
		}
		resp, _, err := client.Infer(modelID, payload)
		if err != nil {
			t.Fatalf("query %d over the front door: %v", i, err)
		}
		if want := twinAnswer(t, twin, modelID, q); !sameAnswer(resp, want) {
			t.Fatalf("query %d: front door class %d, twin class %d", i, resp.Class, want.Class)
		}
	}
	// A model the cluster does not serve gets an explicit wire error.
	var se *lightning.ServerError
	if _, _, err := client.Infer(modelID+1, make([]lightning.Code, 32)); !errors.As(err, &se) {
		t.Fatalf("unknown model error = %v, want ServerError", err)
	}
}
