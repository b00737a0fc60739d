package fault

import (
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
)

// Addr is the placeholder net.Addr the stub conns report.
type Addr struct{}

// Network implements net.Addr.
func (Addr) Network() string { return "udp" }

// String implements net.Addr.
func (Addr) String() string { return "fault:0" }

// timeoutError is the net.Error the stub conns return when their queue runs
// dry, so serve loops treat it exactly like a read-deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "fault: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is the timeout error StubConn returns once its queue is empty.
var ErrTimeout net.Error = timeoutError{}

// StubConn feeds a fixed set of datagrams to a serve loop as fast as it can
// read them, then times out forever — a deterministic stand-in for a socket
// under burst load. Writes are recorded, and can be made to fail (an
// unreachable client) or stall (a slow downstream holding a worker busy).
// Safe for concurrent use by a reader and several writers.
type StubConn struct {
	mu    sync.Mutex
	queue [][]byte

	writes        atomic.Uint64
	deadlineCalls atomic.Uint64

	// sent records outbound datagram payloads when RecordWrites is set.
	sent [][]byte

	// FailWrites makes every WriteTo return an error. Set before serving.
	FailWrites bool
	// WriteDelay stalls each WriteTo, holding the calling worker busy. Set
	// before serving.
	WriteDelay time.Duration
	// ReadErr, when set, is returned by ReadFrom once the queue is empty —
	// a fatal (non-timeout) socket failure under a serve loop, where the
	// default empty-queue behaviour is a timeout. Set before serving.
	ReadErr error
	// RecordWrites keeps a copy of every successful outbound datagram for
	// Sent() — the differential wire tests compare response byte streams
	// with it. Set before serving.
	RecordWrites bool
	// MaxReadBatch caps how many datagrams one ReadBatch call drains
	// (0 = no cap): rx-batch-size distribution tests shape bursts with it.
	MaxReadBatch int
	// FailDeadlines makes every SetReadDeadline arm fail (still counted) —
	// a socket that refuses the serve loop's read deadline. Set before
	// serving.
	FailDeadlines bool
}

// NewStubConn builds a stub conn preloaded with the given datagrams.
func NewStubConn(datagrams ...[][]byte) *StubConn {
	c := &StubConn{}
	for _, batch := range datagrams {
		c.queue = append(c.queue, batch...)
	}
	return c
}

// Enqueue appends one datagram to the read queue.
func (c *StubConn) Enqueue(d []byte) {
	c.mu.Lock()
	c.queue = append(c.queue, d)
	c.mu.Unlock()
}

// Writes returns the count of datagrams written (a batched write counts
// once per message). A datagram may pack several response frames.
func (c *StubConn) Writes() uint64 { return c.writes.Load() }

// DeadlineCalls returns how many times SetReadDeadline was armed — the
// per-batch-deadline regression test's probe.
func (c *StubConn) DeadlineCalls() uint64 { return c.deadlineCalls.Load() }

// Sent returns copies of the recorded outbound datagrams (RecordWrites).
func (c *StubConn) Sent() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.sent))
	for i, d := range c.sent {
		out[i] = append([]byte(nil), d...)
	}
	return out
}

// record appends one outbound payload under mu when recording is on.
func (c *StubConn) record(p []byte) {
	if !c.RecordWrites {
		return
	}
	c.mu.Lock()
	c.sent = append(c.sent, append([]byte(nil), p...))
	c.mu.Unlock()
}

// ReadBatch implements netbatch's native batch interface: it drains up to
// len(ms) queued datagrams in one call (deterministically — whatever is
// queued right now is one "burst"), with the same empty-queue semantics as
// ReadFrom: ReadErr if set, otherwise a timeout after a short sleep.
func (c *StubConn) ReadBatch(ms []netbatch.Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	if len(c.queue) == 0 {
		err := c.ReadErr
		c.mu.Unlock()
		if err != nil {
			return 0, err
		}
		time.Sleep(time.Millisecond)
		return 0, ErrTimeout
	}
	n := 0
	limit := len(ms)
	if c.MaxReadBatch > 0 && c.MaxReadBatch < limit {
		limit = c.MaxReadBatch
	}
	for n < limit && len(c.queue) > 0 {
		d := c.queue[0]
		c.queue = c.queue[1:]
		ms[n].N = copy(ms[n].Buf, d)
		ms[n].Addr = Addr{}
		n++
	}
	c.mu.Unlock()
	return n, nil
}

// WriteBatch implements netbatch's native batch interface with WriteTo's
// fault semantics per message: the first refused write stops the batch and
// reports how many preceded it.
func (c *StubConn) WriteBatch(ms []netbatch.Message) (int, error) {
	for i := range ms {
		if c.WriteDelay > 0 {
			time.Sleep(c.WriteDelay)
		}
		if c.FailWrites {
			return i, errors.New("fault: write refused")
		}
		c.record(ms[i].Buf[:ms[i].N])
		c.writes.Add(1)
	}
	return len(ms), nil
}

// ReadFrom implements net.PacketConn: it pops the next queued datagram, or
// times out (after a short sleep, so cancelled serve loops spin gently) —
// unless ReadErr is set, in which case the empty queue surfaces that fatal
// error instead.
func (c *StubConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	if len(c.queue) == 0 {
		err := c.ReadErr
		c.mu.Unlock()
		if err != nil {
			return 0, nil, err
		}
		time.Sleep(time.Millisecond)
		return 0, nil, ErrTimeout
	}
	d := c.queue[0]
	c.queue = c.queue[1:]
	c.mu.Unlock()
	return copy(p, d), Addr{}, nil
}

// WriteTo implements net.PacketConn.
func (c *StubConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	if c.WriteDelay > 0 {
		time.Sleep(c.WriteDelay)
	}
	if c.FailWrites {
		return 0, errors.New("fault: write refused")
	}
	c.record(p)
	c.writes.Add(1)
	return len(p), nil
}

// Close implements net.PacketConn.
func (c *StubConn) Close() error { return nil }

// LocalAddr implements net.PacketConn.
func (c *StubConn) LocalAddr() net.Addr { return Addr{} }

// SetDeadline implements net.PacketConn.
func (c *StubConn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.PacketConn, counting each arm so tests
// can assert the serve loop's once-per-batch deadline cadence.
func (c *StubConn) SetReadDeadline(time.Time) error {
	c.deadlineCalls.Add(1)
	if c.FailDeadlines {
		return errors.New("fault: read deadline refused")
	}
	return nil
}

// SetWriteDeadline implements net.PacketConn.
func (c *StubConn) SetWriteDeadline(time.Time) error { return nil }

// DropRxConn wraps a real socket and silently discards the first n
// datagrams it reads — deterministic fragment loss in front of a server.
type DropRxConn struct {
	net.PacketConn
	mu      sync.Mutex
	drop    int
	dropped int
}

// DropFirst wraps pc so its first n reads are discarded.
func DropFirst(pc net.PacketConn, n int) *DropRxConn {
	return &DropRxConn{PacketConn: pc, drop: n}
}

// Dropped returns how many datagrams have been discarded so far.
func (c *DropRxConn) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// ReadFrom implements net.PacketConn, losing the first `drop` datagrams.
func (c *DropRxConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.PacketConn.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}
		c.mu.Lock()
		lose := c.dropped < c.drop
		if lose {
			c.dropped++
		}
		c.mu.Unlock()
		if !lose {
			return n, addr, nil
		}
	}
}

// ConnConfig parameterizes a lossy Conn. Probabilities are per-datagram in
// [0, 1]; draws come from a seeded generator, so a single-reader serve loop
// sees a reproducible loss pattern for a fixed seed.
type ConnConfig struct {
	// Seed drives every loss/corruption/duplication/jitter draw.
	Seed uint64
	// RxDrop is the probability an inbound datagram is silently lost.
	RxDrop float64
	// RxCorrupt is the probability an inbound datagram has one random bit
	// flipped — the wire-level damage a checksumless UDP payload carries
	// straight into the decoder.
	RxCorrupt float64
	// TxDrop is the probability an outbound datagram is silently lost
	// (reported as written, as a congested network would).
	TxDrop float64
	// TxDup is the probability an outbound datagram is sent twice — the
	// duplication clients must tolerate by request ID.
	TxDup float64
	// RxLatency delays each delivered inbound datagram; RxJitter adds a
	// seeded uniform draw from [0, RxJitter) on top — the multi-hop latency
	// model a cluster's slow-node faults need. TxLatency/TxJitter do the
	// same for sends. The delay sequence is reproducible for a fixed Seed.
	RxLatency, RxJitter time.Duration
	TxLatency, TxJitter time.Duration
}

// ConnStats counts the faults a Conn has injected.
type ConnStats struct {
	RxDropped, RxCorrupted, TxDropped, TxDuplicated uint64
	// TxCorrupted counts outbound datagrams damaged by CorruptNextTx —
	// the corrupted-partials fault of the cluster chaos suite.
	TxCorrupted uint64
	// Blackholed counts datagrams (both directions) lost to a partition
	// (Blackhole(true)).
	Blackholed uint64
}

// Conn wraps a net.PacketConn with seeded, per-datagram network faults:
// inbound drop and bit corruption, outbound drop and duplication, rx/tx
// latency with jitter, and runtime partition (Blackhole) and targeted
// corruption (CorruptNextTx) controls. It generalizes the ad-hoc lossy
// wrappers the lifecycle tests grew, as one reusable chaos component — and
// is the network surface node-level faults (NodeSlow, NodePartition,
// NodeCorrupt) act on.
type Conn struct {
	net.PacketConn

	mu    sync.Mutex // guards rng, cfg, stats and the runtime fault state
	rng   *rand.Rand
	cfg   ConnConfig
	stats ConnStats
	// blackhole, while set, loses every datagram in both directions — a
	// network partition around this endpoint.
	blackhole bool
	// corruptTx flips one bit in each of the next corruptTx outbound
	// datagrams.
	corruptTx int
}

// NewConn wraps pc with the configured fault behaviour.
func NewConn(pc net.PacketConn, cfg ConnConfig) *Conn {
	return &Conn{PacketConn: pc, rng: rand.New(rand.NewPCG(cfg.Seed, 0xc044)), cfg: cfg}
}

// Stats returns a snapshot of the injected-fault counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Blackhole partitions (or heals, with on=false) this endpoint: while
// partitioned every datagram in both directions is silently lost, exactly as
// a switch dropping the node's traffic would behave.
func (c *Conn) Blackhole(on bool) {
	c.mu.Lock()
	c.blackhole = on
	c.mu.Unlock()
}

// SetLatency replaces the rx/tx latency and jitter injection at runtime —
// a slow-node fault arriving (or healing) mid-run.
func (c *Conn) SetLatency(rxLat, rxJit, txLat, txJit time.Duration) {
	c.mu.Lock()
	c.cfg.RxLatency, c.cfg.RxJitter = rxLat, rxJit
	c.cfg.TxLatency, c.cfg.TxJitter = txLat, txJit
	c.mu.Unlock()
}

// CorruptNextTx flips one seeded-random bit in each of the next n outbound
// datagrams — a node emitting corrupted partials while still responsive.
func (c *Conn) CorruptNextTx(n int) {
	c.mu.Lock()
	c.corruptTx += n
	c.mu.Unlock()
}

// delayLocked draws one latency+jitter delay; caller holds mu, the sleep
// happens outside it.
func (c *Conn) delayLocked(lat, jit time.Duration) time.Duration {
	d := lat
	if jit > 0 {
		d += time.Duration(c.rng.Int64N(int64(jit)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// ReadFrom implements net.PacketConn: datagrams may be dropped (the read
// retries for the next one, as the kernel would simply never surface a lost
// packet), have one bit flipped, or be delivered late (RxLatency/RxJitter).
func (c *Conn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.PacketConn.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}
		c.mu.Lock()
		if c.blackhole {
			c.stats.Blackholed++
			c.mu.Unlock()
			continue
		}
		if c.rng.Float64() < c.cfg.RxDrop {
			c.stats.RxDropped++
			c.mu.Unlock()
			continue
		}
		if n > 0 && c.rng.Float64() < c.cfg.RxCorrupt {
			pos := c.rng.IntN(n * 8)
			p[pos/8] ^= 1 << (pos % 8)
			c.stats.RxCorrupted++
		}
		delay := c.delayLocked(c.cfg.RxLatency, c.cfg.RxJitter)
		c.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		return n, addr, nil
	}
}

// WriteTo implements net.PacketConn: datagrams may be silently dropped
// (reported as sent), duplicated, bit-corrupted (CorruptNextTx), or delayed
// (TxLatency/TxJitter).
func (c *Conn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.mu.Lock()
	if c.blackhole {
		c.stats.Blackholed++
		c.mu.Unlock()
		return len(p), nil
	}
	drop := c.rng.Float64() < c.cfg.TxDrop
	dup := !drop && c.rng.Float64() < c.cfg.TxDup
	if drop {
		c.stats.TxDropped++
	}
	if dup {
		c.stats.TxDuplicated++
	}
	corrupt := -1
	if !drop && c.corruptTx > 0 && len(p) > 0 {
		c.corruptTx--
		c.stats.TxCorrupted++
		corrupt = c.rng.IntN(len(p) * 8)
	}
	delay := time.Duration(0)
	if !drop {
		delay = c.delayLocked(c.cfg.TxLatency, c.cfg.TxJitter)
	}
	c.mu.Unlock()
	if drop {
		return len(p), nil
	}
	out := p
	if corrupt >= 0 {
		// Corrupt a copy: WriteTo must not damage the caller's buffer (the
		// client retries with it).
		out = append([]byte(nil), p...)
		out[corrupt/8] ^= 1 << (corrupt % 8)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	n, err := c.PacketConn.WriteTo(out, addr)
	if err != nil {
		return n, err
	}
	if dup {
		if _, derr := c.PacketConn.WriteTo(out, addr); derr != nil {
			return n, derr
		}
	}
	return n, nil
}
