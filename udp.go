package lightning

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// readTick is how often the serve loops surface from a blocking read to
// check for cancellation and expire stale reassembly entries.
const readTick = 100 * time.Millisecond

// rxBufPool recycles the 64 KiB datagram read buffers shared by the serve
// loops and the client's round-trip reader, so repeated serve invocations
// and per-attempt client reads stop re-allocating max-datagram buffers.
// Pooled as *[]byte so Put does not re-box the slice header on every cycle.
var rxBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65536)
		return &b
	},
}

// txBufPool recycles wire-encode scratch for response (and client query)
// frames; AppendEncode extends the pooled buffer in place, and the grown
// capacity is retained across uses.
var txBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// drainDetached is the serve loops' shutdown drain. The serve context is
// already cancelled (or the socket already dead) when it runs, so draining
// under ctx directly would return immediately with work still in flight;
// instead it derives a context that sheds ctx's cancellation but keeps its
// values, re-bounded by Config.DrainTimeout so a wedged datapath or a
// recovery loop mid-backoff cannot hang shutdown forever.
func (n *NIC) drainDetached(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), n.drainTimeout)
	defer cancel()
	return n.Drain(dctx)
}

// encodeTo serializes msg into pooled tx scratch, passes the wire bytes to
// write, and returns the buffer to the pool. The write callback must not
// retain the slice.
func encodeTo(msg *Message, write func(out []byte) error) error {
	return encodeToPooled(msg.AppendEncode, write)
}

// encodeToPooled is encodeTo with the encoder injected — the seam the
// pool-pollution regression test drives with a failing encoder. On encode
// failure the ORIGINAL pooled buffer is returned to the pool: adopting the
// failure result instead would replace the retained-capacity buffer with
// whatever the encoder handed back (possibly nil), silently bleeding the
// capacity the pool exists to keep.
func encodeToPooled(encode func(dst []byte) ([]byte, error), write func(out []byte) error) error {
	bp := txBufPool.Get().(*[]byte)
	out, err := encode((*bp)[:0])
	if err != nil {
		txBufPool.Put(bp)
		return err
	}
	err = write(out)
	*bp = out[:0]
	txBufPool.Put(bp)
	return err
}

// rxMsgBufSize is each batch slot's read-buffer size: the max UDP datagram,
// matching the historical single-read buffer so no legal datagram — and no
// GRO-coalesced train — truncates.
const rxMsgBufSize = netbatch.GROSlot

// wrapConn wraps a serve socket with the batch seam (internal/netbatch),
// honoring the Config.Wire fallback override and feeding the NIC's syscall
// counters (Metrics.Serve.RxSyscalls/TxSyscalls).
func (n *NIC) wrapConn(pc net.PacketConn) netbatch.BatchConn {
	if n.wire.ForceFallback {
		return netbatch.WrapFallback(pc, &n.netCtr)
	}
	return netbatch.Wrap(pc, &n.netCtr)
}

// ServeUDP attaches the NIC to a UDP socket and serves Lightning wire
// messages until the context is cancelled (requirement R1: live user
// traffic from remote users). It is the serve loop at zero workers: the
// reader executes every query inline — no admission stage, no query copy.
// Reads are batched (one recvmmsg drains up to Config.Wire.RxBatch slots on
// the Linux fast path, where pc is switched to UDP GRO for good and a slot
// may hold one sender's datagram train, walked datagram by datagram), each
// rx datagram may pack several concatenated query frames (wire-level frame
// coalescing), and the batch's responses flush through one batched,
// segmentation-offloaded write. Malformed frames are dropped and counted
// (DecodeErrors for a bad first frame, OversizedCoalesce for a bad coalesced
// tail); failed response writes are likewise counted rather than fatal — one
// unreachable client must not take the server down. On cancellation the loop
// stops reading, waits for in-flight datapath work, and returns the drain's
// verdict (nil unless Config.DrainTimeout fired).
func (n *NIC) ServeUDP(ctx context.Context, pc net.PacketConn) error {
	return n.serve(ctx, pc, 0)
}

// wireJob is one fully-reassembled query admitted toward the worker pool.
type wireJob struct {
	requestID uint32
	modelID   uint16
	query     []byte
	addr      net.Addr
}

// ServeUDPWorkers is ServeUDP with a worker pool behind an admission stage:
// one reader goroutine decodes datagrams and reassembles fragmented queries,
// complete queries pass per-model admission control into weighted priority
// queues (Config.Admission), and workers dequeue across those queues to run
// the datapath and write responses. Each query dispatches round-robin to one
// of the NIC's core shards (Config.Cores); a shard serves one query at a
// time — the hardware pipeline serializes at its photonic core — so with
// Cores=1 inference itself serializes while packet decode, reassembly
// bookkeeping and response I/O still overlap across workers, and with
// Cores=N up to N queries run through the photonics truly in parallel.
// Sizing workers at or above Cores keeps every shard busy.
//
// Overload degrades visibly rather than wedging ingest, along three edges:
//
//   - Admission: each model's queue is bounded (AdmitPolicy.MaxQueue,
//     defaulting to workers*4). A query arriving at a full queue is dropped
//     at ingress and counted — per model in Metrics.Serve.AdmissionDrops,
//     and in the Metrics.Serve.QueueFull aggregate — without blocking the
//     reader or displacing other models' queries. Because reassembly
//     happens before admission, a dropped fragmented query pins no
//     reassembly slot: its table entry was already released on completion.
//   - Priority: workers dequeue by smooth weighted round-robin over the
//     per-model queues (AdmitPolicy.Weight), so under contention each model
//     gets a weight-proportional share of the shards.
//   - Shedding: a dequeued query whose latency budget (AdmitPolicy.Budget)
//     already elapsed while queued is shed — counted in Metrics.Serve.Shed,
//     never served — because a response the client has timed out on is pure
//     waste heat. The client's retry, not a late answer, is the recovery.
//
// On cancellation the reader stops, admitted jobs drain through the workers
// (still subject to shedding), their responses flush, and the call returns
// as ServeUDP does.
//
// With Config.Batch enabled, workers are also what fills batches: each
// worker's query parks in the per-model batch queue until MaxBatch callers
// have arrived or MaxDelay expires, so cross-query batching only pays off
// when workers > 1 keeps several same-model queries in flight at once. Size
// workers at or above Cores × MaxBatch to let every shard flush full
// batches.
func (n *NIC) ServeUDPWorkers(ctx context.Context, pc net.PacketConn, workers int) error {
	if workers < 1 {
		workers = 1
	}
	return n.serve(ctx, pc, workers)
}

// serve is the one rx loop behind both entry points. With workers == 0 the
// reader runs each complete query inline and flushes the rx batch's responses
// in one write; with workers > 0 it feeds the admission stage and a pool of
// workers executes and responds. Either way a fatal read error or a
// cancellation drains before returning: admitted jobs finish, lingering
// responses flush, and queries parked in a batch queue behind a MaxDelay
// timer (a concurrent HandleMessage caller's) are flushed rather than
// abandoned. The read error, not any drain error, is the story when both
// exist.
func (n *NIC) serve(ctx context.Context, pc net.PacketConn, workers int) error {
	bc := n.wrapConn(pc)
	// GRO is the serve socket's alone: its slots hold any coalesced train,
	// and readLoop cuts every slot back into datagrams.
	if n.noOffload {
		netbatch.DisableOffload(bc)
	} else if err := netbatch.EnableGRO(bc, rxMsgBufSize); err != nil {
		return err
	}
	n.serveConn.Store(&bc)
	tx := newTxBatcher(n, bc)
	var admit *nic.Admitter
	stopWorkers := func() {}
	if workers > 0 {
		admit = nic.NewAdmitter(n.admission, workers*4)
		n.admit.Store(admit)
		stopWorkers = n.startWorkers(admit, tx, workers)
	}
	err := n.readLoop(ctx, bc, admit, tx)
	stopWorkers()
	tx.flush()
	if derr := n.drainDetached(ctx); err == nil {
		err = derr
	}
	return err
}

// startWorkers launches the worker pool (and, with a linger budget, the tx
// flusher) and returns the function that retires them: close admission, let
// the workers finish every admitted job, then stop the flusher.
func (n *NIC) startWorkers(admit *nic.Admitter, tx *txBatcher, workers int) (stop func()) {
	// With a linger budget (Config.Wire.TxLinger), workers queue responses
	// and a flusher goroutine sweeps them on the linger cadence, so replies
	// from several workers pack into one batched write; without one, workers
	// write through immediately — no response ever waits on a timer the
	// operator did not grant.
	linger := n.wire.TxLinger
	var flusher sync.WaitGroup
	stopFlusher := make(chan struct{})
	if linger > 0 {
		flusher.Add(1)
		go func() {
			defer flusher.Done()
			t := time.NewTicker(linger)
			defer t.Stop()
			for {
				select {
				case <-stopFlusher:
					return
				case <-t.C:
					tx.flush()
				}
			}
		}()
	}
	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for {
				aj, ok := admit.Pop()
				if !ok {
					return
				}
				if aj.Expired(time.Now()) {
					n.shedDrops.Add(1)
					continue
				}
				j := aj.Payload.(wireJob)
				resp, _ := n.serveAssembled(j.requestID, j.modelID, j.query)
				tx.queue(resp, j.addr)
				if linger == 0 {
					tx.flush()
				}
			}
		}()
	}
	return func() {
		admit.Close()
		pool.Wait()
		close(stopFlusher)
		flusher.Wait()
	}
}

// readLoop is the batched rx read loop: one deadline arm per batch read,
// idle-tick reassembly GC, cancellation observed at every tick. It returns
// nil on cancellation and the error on a fatal read failure.
func (n *NIC) readLoop(ctx context.Context, bc netbatch.BatchConn, admit *nic.Admitter, tx *txBatcher) error {
	ms := netbatch.MakeMessages(n.wire.RxBatch, rxMsgBufSize)
	for {
		if err := bc.SetReadDeadline(time.Now().Add(readTick)); err != nil {
			// Counted, not fatal (Metrics.Serve.DeadlineErrors): a failed
			// deadline arm usually means the socket is closing, which the
			// next read surfaces; meanwhile cancellation must still be
			// observed even if reads now block indefinitely.
			n.deadlineErrors.Add(1)
			if ctx.Err() != nil {
				return nil
			}
		}
		cnt, err := bc.ReadBatch(ms)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Idle tick: expire stale partial queries even when no
				// fragments arrive to trigger the lazy sweep.
				n.reassembly.GC()
				if ctx.Err() != nil {
					return nil
				}
				continue
			}
			return err
		}
		dgrams := 0
		for i := 0; i < cnt; i++ {
			dgrams += ms[i].Datagrams()
		}
		n.rxBatchHist.observe(dgrams)
		for i := 0; i < cnt; i++ {
			// A GRO slot is cut back into its datagrams, so every
			// per-datagram rule holds exactly as for separate reads.
			m := &ms[i]
			data := m.Bytes()
			for m.Seg > 0 && len(data) > m.Seg {
				n.walkDatagram(data[:m.Seg], m.Addr, admit, tx)
				data = data[m.Seg:]
			}
			n.walkDatagram(data, m.Addr, admit, tx)
		}
		if admit == nil || n.wire.TxLinger == 0 {
			// Everything the reader produced for this batch — inline
			// answers, reassembly errors, control acks — leaves in one
			// batched write rather than waiting for a worker's flush.
			tx.flush()
		}
	}
}

// walkDatagram walks every coalesced frame in one rx datagram through the
// shared front half, queueing whatever responses the reader itself produces
// on the tx batcher. The length-prefix walk is strict: a malformed first
// frame counts a decode error, a malformed tail after at least one valid
// frame counts OversizedCoalesce — and in both cases the rest of the datagram
// is dropped without a response, so a partial frame can never be served.
func (n *NIC) walkDatagram(data []byte, addr net.Addr, admit *nic.Admitter, tx *txBatcher) {
	first := true
	for len(data) > 0 {
		var msg Message
		consumed, derr := msg.DecodeNext(data)
		if derr != nil {
			if first {
				n.decodeErrors.Add(1)
			} else {
				n.oversizedCoalesce.Add(1)
			}
			return
		}
		if !first {
			n.coalescedFrames.Add(1)
		}
		first = false
		data = data[consumed:]
		// Only a fragment is reassembled under its sender; the rest never
		// pay for the address.
		var src netip.AddrPort
		if msg.Flags&nic.FlagFragment != 0 {
			src = nic.Source(addr)
		}
		// The error flag rides in the response.
		if resp, _ := n.handle(&msg, src, admit, addr); resp != nil {
			tx.queue(resp, addr)
		}
	}
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
		// One rx datagram may pack several coalesced response frames (the
		// server's TxCoalesce mode); walk them for ours. A malformed frame
		// ends the walk — garbage datagrams were skipped before, too.
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
