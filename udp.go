package lightning

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// ServeUDP attaches the NIC to a UDP socket and serves Lightning wire
// messages until the context is cancelled (requirement R1: live user
// traffic from remote users). It is the front door (DESIGN.md §16) at zero
// workers: the reader executes queries inline — no admission stage, no
// query copy. The complete queries of one batched read (every frame of
// every datagram it drained, up to 16 queries) are answered together, as
// one matrix pass per model, so a layer's reconfiguration, weight stream
// and readout lock are paid once per read, not once per query; no query
// waits for one that had not arrived. Config.Batch does not apply: each
// read is answered at once, as HandleMessage runs each call as a batch of
// one. Malformed frames and failed writes are counted per reason in
// Metrics.Serve, never fatal. On cancellation the loop stops
// reading, waits for in-flight datapath work, and returns the drain's
// verdict (nil unless Config.DrainTimeout fired).
func (n *NIC) ServeUDP(ctx context.Context, pc net.PacketConn) error {
	return n.serve(ctx, pc, 0)
}

// ServeUDPWorkers is ServeUDP with a worker pool behind an admission stage:
// one reader goroutine decodes datagrams and reassembles fragmented queries,
// complete queries pass per-model admission control into weighted priority
// queues (Config.Admission), and workers dequeue across those queues to run
// the datapath and write responses. Each query dispatches round-robin to one
// of the NIC's core shards (Config.Cores); a shard serves one query at a
// time — the hardware pipeline serializes at its photonic core — so with
// Cores=1 queries take the shard one after another while packet decode,
// reassembly bookkeeping and response I/O still overlap across workers, and
// with Cores=N up to N queries run through the photonics truly in parallel.
// Within one query, a weight row of many thousand photonic steps is split
// into blocks that idle CPUs help compute, whatever Cores is. Sizing
// workers at or above Cores keeps every shard busy.
//
// Overload degrades visibly rather than wedging ingest: a query arriving at
// its model's full queue (AdmitPolicy.MaxQueue, default workers*4) is
// dropped at ingress and counted in Metrics.Serve.QueueFull and
// AdmissionDrops; workers dequeue by smooth weighted round-robin
// (AdmitPolicy.Weight); and a query whose latency budget (AdmitPolicy.Budget)
// elapsed in queue is shed, counted in Metrics.Serve.Shed, never served. On
// cancellation admitted queries drain through the workers and the call
// returns as ServeUDP does.
//
// With Config.Batch enabled, a worker pops up to MaxBatch same-model
// queries at once, answers them as one matrix pass and sends their
// responses in one write; the budget is judged at that pop, so the wait for
// a batch to fill counts against it. Only the pool batches: ServeUDP
// answers each read at once, and HandleMessage runs each call as a batch
// of one.
func (n *NIC) ServeUDPWorkers(ctx context.Context, pc net.PacketConn, workers int) error {
	if workers < 1 {
		workers = 1
	}
	return n.serve(ctx, pc, workers)
}

// serve runs the front door with the datapath as its handler, then drains
// the datapath and any recovery. ctx is already cancelled by then, so the
// drain sheds its cancellation, re-bounded by Config.DrainTimeout so a
// wedged datapath or a recovery loop mid-backoff cannot hang shutdown. The
// read error, not any drain error, is the story when both exist.
func (n *NIC) serve(ctx context.Context, pc net.PacketConn, workers int) error {
	err := n.door.Serve(ctx, pc, workers, n.serveGroup, n.rail)
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), n.drainTimeout)
	defer cancel()
	if derr := n.Drain(dctx); err == nil {
		err = derr
	}
	return err
}

// ErrUnavailable is the typed error HandleMessage returns (alongside an
// Err-flagged response) when every photonic-core shard is quarantined: the
// NIC is degraded but honest, refusing queries it can no longer answer
// correctly rather than serving silently wrong results. Recovery relocks
// lift the condition without a restart.
var ErrUnavailable = errors.New("lightning: unavailable: every core shard is quarantined")

// ServerError is the typed error a Client returns when the NIC answered
// with an Err-flagged response: unknown model, malformed fragments, a
// datapath failure, or a fully quarantined (unavailable) NIC. The response
// itself is still returned alongside it.
type ServerError struct {
	RequestID uint32
	ModelID   uint16
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("lightning: server error for request %d (model %d)", e.RequestID, e.ModelID)
}

// Client queries a Lightning NIC over UDP. A Client is safe for concurrent
// use: its calls share one socket through a nic.Channel, whose reader hands
// each response to the call waiting on its request ID, so parallel Infer
// calls overlap their round trips and nobody takes another caller's reply.
type Client struct {
	// Timeout bounds each round-trip attempt.
	Timeout time.Duration
	// Retries is how many times Infer resends the whole query after a
	// timeout (0 = one attempt, no retry). A fragmented send whose
	// fragments were lost — and whose partial reassembly the server
	// expires by TTL — succeeds on a clean retransmission.
	Retries int
	// RetryBackoff is the wait before the first retry, doubling each
	// attempt up to one second (default 50ms when Retries > 0).
	RetryBackoff time.Duration

	ch *nic.Channel
	// jitterSeed seeds the retry jitter stream. Each backoff wait is drawn
	// uniformly from [base/2, base]: synchronized clients (a fleet retrying
	// after the same server blip) decorrelate instead of retrying in
	// lockstep and re-creating the overload that timed them out. newClient
	// derives it from the socket's local address, so concurrent clients
	// jitter differently while a test that fixes it replays the exact
	// schedule.
	jitterSeed uint64
	// sleep is the backoff wait, injectable so the backoff tests record the
	// schedule instead of sleeping it out (nil = time.Sleep).
	sleep func(time.Duration)

	// mu guards rng, the retry jitter stream, built lazily from jitterSeed.
	mu  sync.Mutex
	rng *rand.Rand
}

// maxRetryBackoff caps the exponential backoff: without a cap a deep retry
// schedule grows the wait without bound, which turns a transient server
// stall into a multi-minute client hang.
const maxRetryBackoff = time.Second

// Dial connects a client to a serving NIC's UDP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("lightning: dialing %s: %w", addr, err)
	}
	return newClient(conn), nil
}

// newClient builds a client over a connected socket. The jitter seed hashes
// the socket's local address (the ephemeral port makes it distinct per
// client) rather than the wall clock, so fixed-seed runs stay reproducible
// end to end.
func newClient(conn net.Conn) *Client {
	h := fnv.New64a()
	h.Write([]byte(conn.LocalAddr().String()))
	return &Client{ch: nic.NewChannel(conn), Timeout: 2 * time.Second, jitterSeed: h.Sum64()}
}

// Close releases the client's socket.
func (c *Client) Close() error { return c.ch.Close() }

// Infer sends one query and waits for its response, returning the response
// and the observed round-trip latency. Timeouts retry up to Retries times
// with capped, jittered exponential backoff, re-sending every fragment
// under a fresh request ID. An Err-flagged response is returned together
// with a *ServerError so callers can branch on errors.As without inspecting
// the response; server errors are not retried.
func (c *Client) Infer(modelID uint16, payload []Code) (*Response, time.Duration, error) {
	raw := make([]byte, len(payload))
	for i, p := range payload {
		raw[i] = byte(p)
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for a := 0; a <= c.Retries; a++ {
		if a > 0 {
			c.sleepFor(c.jitterDelay(backoff))
			backoff = min(2*backoff, maxRetryBackoff)
		}
		start := time.Now()
		resp, err := c.ch.Call(nil, 0, modelID, raw, c.Timeout)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			lastErr = err
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		rtt := time.Since(start)
		if resp.Err {
			return resp, rtt, &ServerError{RequestID: resp.RequestID, ModelID: resp.ModelID}
		}
		return resp, rtt, nil
	}
	return nil, 0, fmt.Errorf("lightning: no response after %d attempt(s): %w", c.Retries+1, lastErr)
}

// jitterDelay draws this attempt's actual wait, uniform in [base/2, base].
func (c *Client) jitterDelay(base time.Duration) time.Duration {
	half := base / 2
	if half <= 0 {
		return base
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewPCG(c.jitterSeed, uint64(nic.WireMagic)))
	}
	return half + time.Duration(c.rng.Int64N(int64(half)+1))
}

// sleepFor waits out one backoff delay through the injectable seam.
func (c *Client) sleepFor(d time.Duration) {
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}
