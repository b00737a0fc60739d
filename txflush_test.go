package lightning

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// sent is one response frame as flushConn saw it leave: dgram is the index
// of the datagram that carried it within its flush.
type sent struct {
	id    uint32
	class int
	to    net.Addr
	err   bool
	data  []byte
	dgram int
}

// sourced is one query datagram and the client it arrives from.
type sourced struct {
	data []byte
	from net.Addr
}

// flushConn is a batch seam that shows how responses leave: ReadBatch
// serves each batch the test sends on in, every datagram from its own
// client, and WriteBatch splits each call's datagrams into their response
// frames, as every receiver does, records them as one flush and reports
// every response on written.
type flushConn struct {
	in      chan []sourced
	closed  chan struct{}
	written chan sent

	mu      sync.Mutex
	flushes [][]sent
}

func newFlushConn() *flushConn {
	return &flushConn{
		in:      make(chan []sourced),
		closed:  make(chan struct{}),
		written: make(chan sent, 64),
	}
}

func (c *flushConn) ReadBatch(ms []netbatch.Message) (int, error) {
	select {
	case batch := <-c.in:
		for i, d := range batch {
			ms[i].N = copy(ms[i].Buf, d.data)
			ms[i].Addr, ms[i].Seg = d.from, 0
		}
		return len(batch), nil
	case <-c.closed:
		return 0, fault.ErrTimeout
	}
}

func (c *flushConn) WriteBatch(ms []netbatch.Message) (int, error) {
	var flush []sent
	for i := range ms {
		for b := ms[i].Bytes(); len(b) > 0; {
			var m nic.Message
			k, err := m.DecodeNext(b)
			if err != nil {
				panic(fmt.Sprintf("datagram %d of a flush holds a malformed frame: %v", i, err))
			}
			flush = append(flush, sent{
				id: m.RequestID, class: int(binary.BigEndian.Uint16(m.Payload[0:2])),
				to: ms[i].Addr, err: m.IsError(), data: bytes.Clone(b[:k]), dgram: i,
			})
			b = b[k:]
		}
	}
	c.mu.Lock()
	c.flushes = append(c.flushes, flush)
	c.mu.Unlock()
	for _, s := range flush {
		c.written <- s
	}
	return len(ms), nil
}

func (c *flushConn) SetReadDeadline(time.Time) error { return nil }
func (c *flushConn) FastPath() bool                  { return true }

// recorded returns the flushes so far.
func (c *flushConn) recorded() [][]sent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.flushes)
}

// await collects k written responses, failing if any takes longer than a
// second: a response left queued waits for traffic that never comes.
func (c *flushConn) await(t *testing.T, k int) []sent {
	t.Helper()
	var got []sent
	for len(got) < k {
		select {
		case s := <-c.written:
			got = append(got, s)
		case <-time.After(time.Second):
			t.Fatalf("%d of %d responses written within 1 s: the rest are stranded", len(got), k)
		}
	}
	return got
}

// Two clients' sources for the flush tests.
var (
	clientA net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7001}
	clientB net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7002}
)

const flushWidth, flushModel = 32, 4

// serveFlush serves a NIC built from cfg through a flushConn, with a worker
// pool when workers > 0, until the test ends.
func serveFlush(t *testing.T, cfg Config, workers int) (*NIC, *flushConn) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(flushModel, "halves", halvesModel(flushWidth)); err != nil {
		t.Fatal(err)
	}
	conn := newFlushConn()
	n.rail = func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn { return conn }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		if workers > 0 {
			done <- n.ServeUDPWorkers(ctx, nil, workers)
		} else {
			done <- n.ServeUDP(ctx, nil)
		}
	}()
	t.Cleanup(func() {
		cancel()
		close(conn.closed)
		if err := <-done; err != nil {
			t.Errorf("serve returned %v", err)
		}
	})
	return n, conn
}

// queries encodes k queries, request IDs first..first+k-1, alternating
// between clients A and B; request id's oracle class is id%2.
func queries(t *testing.T, first uint32, k int) []sourced {
	t.Helper()
	out := make([]sourced, k)
	for i := range out {
		id := first + uint32(i)
		d, err := (&nic.Message{RequestID: id, ModelID: flushModel, Payload: halvesQuery(flushWidth, id%2 == 0)}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sourced{data: d, from: clientA}
		if i%2 == 1 {
			out[i].from = clientB
		}
	}
	return out
}

// runs counts the maximal runs of one destination in a flush.
func runs(flush []sent) int {
	r := 0
	for i := range flush {
		if i == 0 || flush[i].to != flush[i-1].to {
			r++
		}
	}
	return r
}

// datagrams counts the datagrams that carried a flush's responses.
func datagrams(flush []sent) int {
	if len(flush) == 0 {
		return 0
	}
	return flush[len(flush)-1].dgram + 1
}

// TestServeUDPBatchLeavesInOneFlush: a full batch of eight queries from two
// interleaved clients, served by a worker pool, leaves in one WriteBatch of
// two datagrams, each client's four responses packed in its own, every
// answer its oracle's.
func TestServeUDPBatchLeavesInOneFlush(t *testing.T) {
	n, conn := serveFlush(t, Config{
		Lanes: 2, Noiseless: true, Seed: 3,
		Batch: BatchConfig{MaxBatch: 8, MaxDelay: time.Hour},
	}, 8)
	conn.in <- queries(t, 1, 8)
	for _, s := range conn.await(t, 8) {
		if s.err || s.class != int(s.id%2) {
			t.Errorf("request %d answered class %d (error %v), want its oracle %d", s.id, s.class, s.err, s.id%2)
		}
	}
	flushes := conn.recorded()
	if len(flushes) != 1 || len(flushes[0]) != 8 {
		t.Fatalf("flush sizes %v, want one flush of 8", flushSizes(flushes))
	}
	if r := runs(flushes[0]); r != 2 {
		t.Errorf("the flush's destinations form %d runs, want 2 (one per client)", r)
	}
	if k := datagrams(flushes[0]); k != 2 {
		t.Errorf("the flush's 8 responses left in %d datagrams, want 2 (one per client)", k)
	}
	if h := n.Metrics().Serve.TxBatchSize; h.Count != 1 || h.Sum != 2 {
		t.Errorf("TxBatchSize Count %d Sum %d, want 1 and 2", h.Count, h.Sum)
	}
}

// flushSizes lists each flush's response count.
func flushSizes(flushes [][]sent) []int {
	sizes := make([]int, len(flushes))
	for i, f := range flushes {
		sizes[i] = len(f)
	}
	return sizes
}

// TestServeUDPBatchNeverStrandsAResponse: whatever lets a batch leave
// admission, every response the worker pool queued is written within a
// second with no further traffic — a partial batch the MaxDelay timer
// releases, one Drain releases, and a batch every quarantined shard
// refuses.
func TestServeUDPBatchNeverStrandsAResponse(t *testing.T) {
	batched := func(delay time.Duration) Config {
		return Config{Lanes: 2, Noiseless: true, Seed: 3, Batch: BatchConfig{MaxBatch: 8, MaxDelay: delay}}
	}

	t.Run("max-delay", func(t *testing.T) {
		_, conn := serveFlush(t, batched(20*time.Millisecond), 8)
		conn.in <- queries(t, 1, 3)
		conn.await(t, 3)
		if sizes := flushSizes(conn.recorded()); !slices.Equal(sizes, []int{3}) {
			t.Errorf("flush sizes %v, want the partial batch in one flush of 3", sizes)
		}
	})

	t.Run("drain", func(t *testing.T) {
		n, conn := serveFlush(t, batched(time.Hour), 8)
		conn.in <- queries(t, 1, 3)
		for i := 0; i < 20000 && queued(n) != 3; i++ {
			time.Sleep(50 * time.Microsecond)
		}
		if err := n.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		conn.await(t, 3)
	})

	t.Run("all-quarantined", func(t *testing.T) {
		cfg := batched(time.Hour)
		cfg.Cores, cfg.RelockAttempts, cfg.RelockBackoff = 1, 1, time.Millisecond
		n, conn := serveFlush(t, cfg, 8)
		runner := fault.NewRunner(fault.NewPlan().At(0, 0, fault.DeadLane{Lane: 0}), n)
		if fired := runner.Step(); len(fired) != 1 || fired[0].Err != nil {
			t.Fatalf("injection: %v", fired)
		}
		if errs := n.ProbeShards(); errs[0] == nil {
			t.Fatal("probe sweep missed the dead lane")
		}
		if err := n.Drain(context.Background()); err != nil { // recovery attempts exhaust
			t.Fatal(err)
		}
		conn.in <- queries(t, 1, 8)
		for _, s := range conn.await(t, 8) {
			if !s.err {
				t.Errorf("request %d served through a fully quarantined NIC", s.id)
			}
		}
	})
}

// queued returns how many queries wait in n's admission, their batch not
// yet popped.
func queued(n *NIC) int {
	k := 0
	for _, d := range n.Metrics().Serve.QueueDepth {
		k += d
	}
	return k
}

// waitQueued waits until k queries wait in n's admission.
func waitQueued(t *testing.T, n *NIC, k int) {
	t.Helper()
	for i := 0; i < 20000 && queued(n) != k; i++ {
		time.Sleep(50 * time.Microsecond)
	}
	if got := queued(n); got != k {
		t.Fatalf("queued = %d, want %d waiting in admission", got, k)
	}
}

// servePool serves n's worker pool through a flushConn until the test ends,
// with the NIC's own handler, recording each request's handler error — the
// one thing the wire does not carry — for errOf.
func servePool(t *testing.T, n *NIC, workers int) (conn *flushConn, errOf func(id uint32) error) {
	t.Helper()
	conn = newFlushConn()
	var mu sync.Mutex
	errs := make(map[uint32]error)
	h := func(reqs []frontdoor.Request, resps []Response, es []error) {
		n.serveGroup(reqs, resps, es)
		mu.Lock()
		for i := range reqs {
			errs[reqs[i].ID] = es[i]
		}
		mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- n.door.Serve(ctx, nil, workers, h, func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn { return conn })
	}()
	t.Cleanup(func() {
		cancel()
		close(conn.closed)
		if err := <-done; err != nil {
			t.Errorf("serve returned %v", err)
		}
	})
	return conn, func(id uint32) error {
		mu.Lock()
		defer mu.Unlock()
		return errs[id]
	}
}

// codeQueries encodes one query per payload, request IDs 1..k, all from
// client A.
func codeQueries(t *testing.T, modelID uint16, payloads ...[]Code) []sourced {
	t.Helper()
	out := make([]sourced, len(payloads))
	for i, q := range payloads {
		raw := make([]byte, len(q))
		for j, c := range q {
			raw[j] = byte(c)
		}
		out[i] = sourced{data: encodeQuery(t, uint32(i+1), modelID, raw), from: clientA}
	}
	return out
}

// responses awaits k responses and decodes each, by request ID.
func (c *flushConn) responses(t *testing.T, k int) map[uint32]*Response {
	t.Helper()
	out := make(map[uint32]*Response, k)
	for _, s := range c.await(t, k) {
		var m Message
		if err := m.Decode(s.data); err != nil {
			t.Fatal(err)
		}
		resp, err := nic.ParseResponse(&m)
		if err != nil {
			t.Fatal(err)
		}
		resp.Probs = bytes.Clone(resp.Probs)
		out[s.id] = resp
	}
	return out
}
