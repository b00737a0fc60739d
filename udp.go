package lightning

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// rxBufPool recycles the 64 KiB datagram read buffers of the client's
// round-trip reader, so per-attempt reads stop re-allocating max-datagram
// buffers. Pooled as *[]byte so Put does not re-box the slice header on
// every cycle.
var rxBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65536)
		return &b
	},
}

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
// use: Infer serializes internally, so parallel callers take turns on the
// single socket (request IDs stay unique and nobody steals another caller's
// reply). Callers who want true round-trip parallelism open one Client per
// goroutine — or use an open-loop driver like cmd/lightning-loadgen.
type Client struct {
	// mu serializes Infer end to end: the request-ID draw, the fragmented
	// send, and the reply reads on the shared conn are one critical
	// section. Without it two goroutines interleave Reads and consume each
	// other's responses.
	mu     sync.Mutex
	conn   net.Conn
	nextID uint32
	// Timeout bounds each round-trip attempt.
	Timeout time.Duration
	// Retries is how many times Infer resends the whole query after a
	// timeout (0 = one attempt, no retry). A fragmented send whose
	// fragments were lost — and whose partial reassembly the server
	// expires by TTL — succeeds on a clean retransmission.
	Retries int
	// RetryBackoff is the wait before the first retry, doubling each
	// attempt (default 50ms when Retries > 0).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff (default 1s): without a
	// cap a deep retry schedule grows the wait without bound, which turns a
	// transient server stall into a multi-minute client hang.
	RetryBackoffMax time.Duration
	// JitterSeed seeds the retry jitter stream. Each backoff wait is drawn
	// uniformly from [base/2, base]: synchronized clients (a fleet retrying
	// after the same server blip) decorrelate instead of retrying in
	// lockstep and re-creating the overload that timed them out. Zero
	// derives a per-client seed from the socket's local address, so
	// concurrent clients jitter differently by default while a test that
	// fixes the seed replays the exact schedule.
	JitterSeed uint64

	// rng drives the retry jitter, built lazily under mu.
	rng *rand.Rand
	// sleep is the backoff wait, injectable so the backoff regression test
	// records the schedule instead of sleeping it out (nil = time.Sleep).
	sleep func(time.Duration)

	// bc is the batched view of conn, built lazily under mu so tests that
	// construct a Client literal still work. A fragmented query's whole
	// burst leaves in one WriteBatch — one sendmmsg on the fast path.
	bc netbatch.BatchConn
	// txBuf/txOffs/txMsgs are retained send scratch: every fragment encodes
	// into txBuf back to back, txOffs marks the frame boundaries, and txMsgs
	// is the Message view handed to WriteBatch.
	txBuf  []byte
	txOffs []int
	txMsgs []netbatch.Message
}

// Dial connects a client to a serving NIC's UDP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("lightning: dialing %s: %w", addr, err)
	}
	return &Client{conn: conn, Timeout: 2 * time.Second}, nil
}

// Close releases the client's socket.
func (c *Client) Close() error { return c.conn.Close() }

// Infer sends one query and waits for its response, returning the response
// and the observed round-trip latency. Timeouts retry up to Retries times
// with exponential backoff, re-sending every fragment under a fresh request
// ID. An Err-flagged response is returned together with a *ServerError so
// callers can branch on errors.As without inspecting the response; server
// errors are not retried.
func (c *Client) Infer(modelID uint16, payload []Code) (*Response, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw := make([]byte, len(payload))
	for i, p := range payload {
		raw[i] = byte(p)
	}
	attempts := c.Retries + 1
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxBackoff := c.RetryBackoffMax
	if maxBackoff <= 0 {
		maxBackoff = time.Second
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.sleepFor(c.jitterDelay(backoff))
			if backoff < maxBackoff {
				backoff *= 2
			}
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		resp, rtt, err := c.attempt(modelID, raw)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				lastErr = err
				continue
			}
			return nil, 0, err
		}
		if resp.Err {
			return resp, rtt, &ServerError{RequestID: resp.RequestID, ModelID: resp.ModelID}
		}
		return resp, rtt, nil
	}
	return nil, 0, fmt.Errorf("lightning: no response after %d attempt(s): %w", attempts, lastErr)
}

// jitterDelay draws this attempt's actual wait, uniform in [base/2, base].
// Caller holds mu (the rng is shared client state).
func (c *Client) jitterDelay(base time.Duration) time.Duration {
	if c.rng == nil {
		seed := c.JitterSeed
		if seed == 0 {
			// Derive a per-client seed from the socket's local address (the
			// ephemeral port makes it distinct per client) rather than the
			// wall clock, so fixed-seed runs stay reproducible end to end.
			seed = 14695981039346656037 // FNV-64a offset basis
			for s := c.conn.LocalAddr().String(); len(s) > 0; s = s[1:] {
				seed ^= uint64(s[0])
				seed *= 1099511628211
			}
		}
		c.rng = rand.New(rand.NewPCG(seed, uint64(nic.WireMagic)))
	}
	half := base / 2
	if half <= 0 {
		return base
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

// attempt performs one send-and-wait round trip.
func (c *Client) attempt(modelID uint16, raw []byte) (*Response, time.Duration, error) {
	c.nextID++
	id := c.nextID
	// Large queries (Table 6's 150 KB images) travel as fragments that the
	// NIC's packet assembler reassembles.
	msgs, err := nic.Fragment(id, modelID, raw, nic.MaxFragPayload)
	if err != nil {
		return nil, 0, err
	}
	if c.bc == nil {
		c.bc = netbatch.WrapConn(c.conn, nil)
	}
	start := time.Now()
	// Encode every fragment back to back into retained scratch, then hand
	// the whole burst to one WriteBatch. The Message views are built only
	// after all encodes so txBuf reallocation cannot orphan a frame.
	c.txBuf = c.txBuf[:0]
	c.txOffs = c.txOffs[:0]
	for _, m := range msgs {
		c.txOffs = append(c.txOffs, len(c.txBuf))
		if c.txBuf, err = m.AppendEncode(c.txBuf); err != nil {
			return nil, 0, err
		}
	}
	c.txMsgs = c.txMsgs[:0]
	for i, off := range c.txOffs {
		end := len(c.txBuf)
		if i+1 < len(c.txOffs) {
			end = c.txOffs[i+1]
		}
		c.txMsgs = append(c.txMsgs, netbatch.Message{Buf: c.txBuf[off:end], N: end - off})
	}
	if _, err := c.bc.WriteBatch(c.txMsgs); err != nil {
		return nil, 0, err
	}
	if err := c.bc.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
		return nil, 0, err
	}
	bufp := rxBufPool.Get().(*[]byte)
	defer rxBufPool.Put(bufp)
	rx := [1]netbatch.Message{{Buf: *bufp}}
	for {
		cnt, err := c.bc.ReadBatch(rx[:])
		if err != nil {
			return nil, 0, err
		}
		if cnt == 0 {
			continue
		}
		// One rx datagram may pack several concatenated response frames
		// (the wire protocol allows it); walk them for ours. A malformed
		// frame ends the walk — garbage datagrams were skipped before, too.
		data := rx[0].Bytes()
		for len(data) > 0 {
			var reply Message
			consumed, derr := reply.DecodeNext(data)
			if derr != nil {
				break
			}
			data = data[consumed:]
			if reply.RequestID != id || !reply.IsResponse() {
				continue // stale frame
			}
			resp, perr := nic.ParseResponse(&reply)
			if perr != nil {
				return nil, 0, perr
			}
			// ParseResponse aliases Probs into the read buffer; copy before
			// the deferred Put hands that buffer to another goroutine.
			resp.Probs = append([]uint8(nil), resp.Probs...)
			return resp, time.Since(start), nil
		}
	}
}
