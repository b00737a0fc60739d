package lightning

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// halvesModel is the lifecycle tests' name for the exported synthetic
// two-class model (each output neuron sums one half of the input), kept as a
// local alias so the many call sites read unchanged. Correct reassembly is
// visible in the answer: whichever half is bright wins.
func halvesModel(width int) *TrainedModel { return SyntheticHalvesModel(width) }

// The stub and lossy PacketConn wrappers these tests once defined inline
// now live in internal/fault (StubConn, DropFirst), shared with the chaos
// suite.

func encodeQuery(t *testing.T, id uint32, modelID uint16, payload []byte) []byte {
	t.Helper()
	raw, err := (&Message{RequestID: id, ModelID: modelID, Payload: payload}).AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestNICReassemblyExpiry drives TTL eviction through the NIC: a fragmented
// query that loses its tail is expired from the table (ReassemblyExpired)
// instead of pinning a slot, and a clean resend afterwards still serves.
func TestNICReassemblyExpiry(t *testing.T) {
	const width = 64
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 7, ReassemblyTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(3000, 0)
	var mu sync.Mutex
	n.reassembly.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	payload := make([]byte, width)
	for i := 0; i < width/2; i++ {
		payload[i] = 200
	}
	msgs, err := nic.Fragment(31, 4, payload, nic.FragHeaderLen+16)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) < 3 {
		t.Fatalf("only %d fragments", len(msgs))
	}
	// All but the last fragment arrive; the tail is lost.
	for _, m := range msgs[:len(msgs)-1] {
		if resp, err := n.HandleMessage(m); err != nil || resp != nil {
			t.Fatalf("resp=%v err=%v", resp, err)
		}
	}
	if p := n.Metrics().PendingReassembly; p != 1 {
		t.Fatalf("PendingReassembly = %d", p)
	}
	advance(2 * time.Second)
	n.reassembly.GC() // the serve loops run this on their idle tick
	m := n.Metrics()
	if m.PendingReassembly != 0 || m.ReassemblyExpired != 1 {
		t.Fatalf("pending=%d expired=%d after TTL", m.PendingReassembly, m.ReassemblyExpired)
	}
	// A clean retransmission of the whole query still serves.
	var resp *Response
	for _, msg := range msgs {
		r, err := n.HandleMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			resp = r
		}
	}
	if resp == nil || resp.Class != 0 {
		t.Fatalf("resent query resp = %+v, want class 0", resp)
	}
}

// TestServeUDPWorkersDrainOnCancel cancels the worker-pool serve loop under
// a burst of accepted queries: every query that entered the job queue must
// complete through the shards and flush its response before the call
// returns, and every loss must be accounted (Served + QueueFull == sent).
func TestServeUDPWorkersDrainOnCancel(t *testing.T) {
	const width = 64
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 9, Cores: 2})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, width)
	const sent = 40
	pc := fault.NewStubConn()
	pc.RecordWrites = true
	for i := 0; i < sent; i++ {
		pc.Enqueue(encodeQuery(t, uint32(i+1), 4, payload))
	}
	// Cancel up front: the reader still drains every buffered datagram
	// before it sees the idle tick, then the queue drains through the
	// workers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ServeUDPWorkers(ctx, pc, 2); err != nil {
		t.Fatalf("ServeUDPWorkers: %v", err)
	}
	m := n.Metrics()
	if m.Served+m.Serve.QueueFull != sent {
		t.Errorf("Served (%d) + QueueFull (%d) != sent (%d)", m.Served, m.Serve.QueueFull, sent)
	}
	if got := uint64(len(sentFrames(t, pc))); got != m.Served {
		t.Errorf("responses flushed = %d, served = %d", got, m.Served)
	}
	if err := n.Drain(context.Background()); err != nil {
		t.Errorf("Drain after serve: %v", err)
	}
}

// TestServeUDPWorkersQueueFullBackpressure stalls the single worker (slow
// response writes stand in for a stalled shard) under a flood: the bounded
// job queue must drop at ingress and count every drop instead of wedging
// the reader, and the books must still balance after drain.
func TestServeUDPWorkersQueueFullBackpressure(t *testing.T) {
	const width = 64
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 10})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, width)
	const sent = 64
	pc := fault.NewStubConn()
	pc.WriteDelay = 2 * time.Millisecond
	for i := 0; i < sent; i++ {
		pc.Enqueue(encodeQuery(t, uint32(i+1), 4, payload))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ServeUDPWorkers(ctx, pc, 1); err != nil {
		t.Fatalf("ServeUDPWorkers: %v", err)
	}
	m := n.Metrics()
	if m.Serve.QueueFull == 0 {
		t.Error("flood against a stalled worker produced no queue-full drops")
	}
	if m.Served+m.Serve.QueueFull != sent {
		t.Errorf("Served (%d) + QueueFull (%d) != sent (%d)", m.Served, m.Serve.QueueFull, sent)
	}
}

// TestServeUDPWorkersQueueFullFragmentedExactlyOnce: under batching, a
// fragmented query that completes reassembly but is rejected at admission
// (its model's queue at bound behind a stalled worker) must be accounted
// exactly once in Metrics.Serve.QueueFull — not once per fragment — and must
// leave no reassembly slot pinned: reassembly runs on the reader BEFORE
// admission, so the table entry is already released when the drop happens.
func TestServeUDPWorkersQueueFullFragmentedExactlyOnce(t *testing.T) {
	const width = 2000 // fragments into 2 datagrams at MaxFragPayload
	n, _ := New(Config{
		Lanes: 2, Noiseless: true, Seed: 15,
		Batch: BatchConfig{MaxBatch: 2, MaxDelay: time.Millisecond},
	})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, width)
	const sent = 32
	pc := fault.NewStubConn()
	pc.WriteDelay = 2 * time.Millisecond
	for i := 0; i < sent; i++ {
		msgs, err := nic.Fragment(uint32(i+1), 4, payload, nic.MaxFragPayload)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) < 2 {
			t.Fatalf("query did not fragment: %d messages", len(msgs))
		}
		for _, m := range msgs {
			raw, err := m.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			pc.Enqueue(raw)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ServeUDPWorkers(ctx, pc, 1); err != nil {
		t.Fatalf("ServeUDPWorkers: %v", err)
	}
	m := n.Metrics()
	if m.Serve.QueueFull == 0 {
		t.Error("flood of fragmented queries against a stalled worker produced no admission drops")
	}
	// Exactly-once accounting: every sent QUERY is either served or dropped
	// at admission; fragments never count individually.
	if m.Served+m.Serve.QueueFull != sent {
		t.Errorf("Served (%d) + QueueFull (%d) != queries sent (%d)", m.Served, m.Serve.QueueFull, sent)
	}
	if got := m.Serve.AdmissionDrops[4]; got != m.Serve.QueueFull {
		t.Errorf("per-model AdmissionDrops[4] = %d, want the whole aggregate %d", got, m.Serve.QueueFull)
	}
	// No reassembly slot pinned, and none expired: completion released every
	// entry before the admission verdict.
	if m.PendingReassembly != 0 || m.ReassemblyExpired != 0 || m.ReassemblyDrops != 0 {
		t.Errorf("reassembly table not clean after admission drops: pending=%d expired=%d drops=%d",
			m.PendingReassembly, m.ReassemblyExpired, m.ReassemblyDrops)
	}
}

// TestServeUDPWorkersDeadlineShed: with a latency budget so tight every
// queued request has blown it by dequeue time, the workers must shed —
// counted in Metrics.Serve.Shed, never served, books still balancing —
// instead of serving answers the client has already timed out on.
func TestServeUDPWorkersDeadlineShed(t *testing.T) {
	const width = 64
	n, _ := New(Config{
		Lanes: 2, Noiseless: true, Seed: 16,
		Admission: AdmissionConfig{Budget: time.Nanosecond},
	})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, width)
	const sent = 24
	pc := fault.NewStubConn()
	pc.RecordWrites = true
	for i := 0; i < sent; i++ {
		pc.Enqueue(encodeQuery(t, uint32(i+1), 4, payload))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ServeUDPWorkers(ctx, pc, 2); err != nil {
		t.Fatalf("ServeUDPWorkers: %v", err)
	}
	m := n.Metrics()
	if m.Serve.Shed == 0 {
		t.Error("nanosecond budget shed nothing")
	}
	if m.Served+m.Serve.QueueFull+m.Serve.Shed != sent {
		t.Errorf("Served (%d) + QueueFull (%d) + Shed (%d) != sent (%d)",
			m.Served, m.Serve.QueueFull, m.Serve.Shed, sent)
	}
	if got := uint64(len(sentFrames(t, pc))); got != m.Served {
		t.Errorf("responses flushed = %d, served = %d (shed requests must not answer)", got, m.Served)
	}
}

// TestServeUDPWorkersWeightedAdmission drives two models through one serve
// loop with 3:1 weights and a shared backlog, and checks both that the
// priority model gets the earlier service slots and that per-model
// admission bounds hold independently.
func TestServeUDPWorkersWeightedAdmission(t *testing.T) {
	const width = 64
	n, _ := New(Config{
		Lanes: 2, Noiseless: true, Seed: 17,
		Admission: AdmissionConfig{
			MaxQueue: 64,
			Models: map[uint16]AdmitPolicy{
				4: {Weight: 3},
				5: {Weight: 1, MaxQueue: 4},
			},
		},
	})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(5, "halves2", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, width)
	pc := fault.NewStubConn()
	// Interleave arrivals so both queues are backlogged from the start.
	const perModel = 24
	for i := 0; i < perModel; i++ {
		pc.Enqueue(encodeQuery(t, uint32(1000+i), 4, payload))
		pc.Enqueue(encodeQuery(t, uint32(2000+i), 5, payload))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ServeUDPWorkers(ctx, pc, 1); err != nil {
		t.Fatalf("ServeUDPWorkers: %v", err)
	}
	m := n.Metrics()
	// Model 5's tight bound (4) must have dropped most of its arrivals
	// while model 4's roomy queue admitted everything.
	if m.Serve.AdmissionDrops[4] != 0 {
		t.Errorf("model 4 dropped %d with a 64-deep queue", m.Serve.AdmissionDrops[4])
	}
	if m.Serve.AdmissionDrops[5] == 0 {
		t.Error("model 5's 4-deep bound dropped nothing under a 24-query backlog")
	}
	if m.Served+m.Serve.QueueFull != 2*perModel {
		t.Errorf("Served (%d) + QueueFull (%d) != sent (%d)", m.Served, m.Serve.QueueFull, 2*perModel)
	}
}

// TestServeUDPCountsDecodeAndWriteErrors: malformed datagrams and failed
// response writes must be counted, and neither may take the serve loop
// down (one unreachable client is not a server failure).
func TestServeUDPCountsDecodeAndWriteErrors(t *testing.T) {
	const width = 64
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 11})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	pc := fault.NewStubConn()
	pc.FailWrites = true
	pc.Enqueue([]byte{0xde, 0xad, 0xbe, 0xef}) // garbage
	pc.Enqueue(encodeQuery(t, 1, 4, make([]byte, width)))
	pc.Enqueue(encodeQuery(t, 2, 4, make([]byte, width)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ServeUDP(ctx, pc); err != nil {
		t.Fatalf("ServeUDP treated a write failure as fatal: %v", err)
	}
	m := n.Metrics()
	if m.Serve.DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d, want 1", m.Serve.DecodeErrors)
	}
	if m.Serve.WriteErrors != 2 {
		t.Errorf("WriteErrors = %d, want 2", m.Serve.WriteErrors)
	}
	if m.Served != 2 {
		t.Errorf("Served = %d, want 2", m.Served)
	}
}

// TestClientRetryAgainstLossyServer: the first datagram of a fragmented
// query is lost, pinning a partial reassembly at the server. The client's
// bounded retry resends after its timeout and succeeds; the server's TTL
// expires the orphaned partial so the table ends clean.
func TestClientRetryAgainstLossyServer(t *testing.T) {
	const width = 2000 // fragments into 2 datagrams at MaxFragPayload
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 12, ReassemblyTTL: 50 * time.Millisecond})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	pc := fault.DropFirst(inner, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, pc) }()

	client, err := Dial(inner.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 300 * time.Millisecond
	client.Retries = 2
	client.RetryBackoff = 20 * time.Millisecond

	query := make([]Code, width)
	for i := width / 2; i < width; i++ {
		query[i] = 200
	}
	resp, _, err := client.Infer(4, query)
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if resp.Class != 1 {
		t.Errorf("class = %d, want 1", resp.Class)
	}
	// The orphaned partial from the lossy first attempt expires by TTL.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := n.Metrics()
		if m.ReassemblyExpired >= 1 && m.PendingReassembly == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned partial not expired: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeUDP returned %v", err)
	}
}

// TestClientNoRetryOnServerError: server errors are typed and final — the
// client must not burn retry attempts on them.
func TestClientNoRetryOnServerError(t *testing.T) {
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 13})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, pc) }()

	client, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Retries = 3
	start := time.Now()
	resp, _, err := client.Infer(99, []Code{1, 2, 3})
	var se *ServerError
	if !errors.As(err, &se) || resp == nil || !resp.Err {
		t.Fatalf("want *ServerError with flagged response, got resp=%v err=%v", resp, err)
	}
	if time.Since(start) > time.Second {
		t.Error("server error burned retry backoff")
	}
	cancel()
	<-done
}

// TestDrain: immediate when idle, ctx-bounded when work is pinned in the
// datapath.
func TestDrain(t *testing.T) {
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 14})
	if err := n.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	n.inflight.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := n.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pinned drain = %v, want deadline exceeded", err)
	}
	n.inflight.Add(-1)
	if err := n.Drain(context.Background()); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

// TestServeUDPShutdownBoundedByDrainTimeout is the regression test for the
// unbounded shutdown drain the ctxflow sweep surfaced: the serve loops'
// cancellation paths drained under a bare context.Background(), so a wedged
// NIC — here a dead lane whose recovery loop is parked in a one-hour relock
// backoff — hung a cancelled ServeUDP forever. The drain now detaches from
// the cancelled serve context via context.WithoutCancel but is re-bounded by
// Config.DrainTimeout: cancellation must surface within that budget, carrying
// the drain's deadline error as the evidence the bound fired.
func TestServeUDPShutdownBoundedByDrainTimeout(t *testing.T) {
	n, err := New(Config{
		Lanes: 2, Noiseless: true, Seed: 12, Cores: 1,
		RelockAttempts: 5, RelockBackoff: time.Hour,
		DrainTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InjectFault(0, fault.DeadLane{Lane: 0}); err != nil {
		t.Fatal(err)
	}
	if errs := n.ProbeShards(); errs[0] == nil {
		t.Fatal("dead-lane shard passed its probe")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	served := make(chan error, 1)
	go func() { served <- n.ServeUDP(ctx, fault.NewStubConn()) }()
	select {
	case err := <-served:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ServeUDP = %v, want the bounded drain's DeadlineExceeded", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled ServeUDP still blocked after 3s; shutdown drain is unbounded")
	}
	// Close retires the parked recovery loop, after which a normal Drain
	// finishes immediately — the clean-shutdown sequence cmd/lightning-serve
	// runs.
	_ = n.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer dcancel()
	if err := n.Drain(dctx); err != nil {
		t.Fatalf("Drain after Close = %v", err)
	}
}
