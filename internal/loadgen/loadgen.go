// Package loadgen is the open-loop traffic driver behind
// cmd/lightning-loadgen: it offers Lightning wire queries to a UDP server at
// a configured arrival rate — Poisson or fixed-interval, from a seeded
// generator — and measures what comes back. Open-loop means arrivals never
// wait for responses: when the server falls behind, the offered load does
// NOT politely slow down the way a closed-loop (request, wait, repeat)
// client would, so queue growth, admission drops and deadline sheds become
// visible instead of being absorbed into client-side think time. That is
// the property a saturation curve needs.
//
// The driver fans requests over several connected UDP sockets, tracks every
// in-flight request ID, and attributes each response (or its absence) to
// the model that sent it, with latency samples kept raw so callers can cut
// whatever percentiles they need via internal/stats.
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
	"github.com/lightning-smartnic/lightning/internal/stats"
)

// Wire-batching parameters: the driver speaks through internal/netbatch, so
// backlog bursts leave in one sendmmsg and the receivers drain several
// responses per recvmmsg on the Linux fast path.
const (
	// burstMax caps how many behind-schedule arrivals accumulate into one
	// batched write before the sender flushes.
	burstMax = 16
	// rxBatch is each receiver's batch width; rxBufSize each slot's buffer
	// (the max UDP datagram, so no legal response truncates).
	rxBatch   = 16
	rxBufSize = 65536
)

// Arrival processes.
const (
	// DistPoisson draws exponential inter-arrival gaps — independent
	// arrivals, the standard open-loop model of aggregate network traffic.
	DistPoisson = "poisson"
	// DistFixed spaces arrivals exactly 1/rate apart — a pessimal perfectly
	// paced load, useful for deterministic smoke tests.
	DistFixed = "fixed"
)

// ModelSpec is one model in the traffic mix.
type ModelSpec struct {
	ID uint16
	// Width is the query width in input codes (one byte each on the wire).
	Width int
	// Weight is this model's share of the mix; zero means 1.
	Weight int
}

// Config parameterizes one load run.
type Config struct {
	// Addrs are the servers' UDP addresses; at least one. Socket i dials
	// Addrs[i mod len(Addrs)], so a multi-endpoint deployment (several
	// NICs, or coordinator front doors) shares the offered load evenly.
	Addrs []string
	// Models is the traffic mix; at least one entry.
	Models []ModelSpec
	// Rate is the aggregate offered arrival rate in requests/second.
	Rate float64
	// Dist selects the arrival process; empty means DistPoisson.
	Dist string
	// Duration is the sending window.
	Duration time.Duration
	// Conns is how many connected UDP sockets the load fans over (request
	// i uses socket i mod Conns). Zero means 1.
	Conns int
	// Timeout is how long after the sending window closes the driver keeps
	// listening before writing off outstanding requests as timeouts. Zero
	// means one second.
	Timeout time.Duration
	// Seed drives arrivals and model picks; a fixed seed reproduces the
	// exact offered sequence.
	Seed uint64
	// ReportEvery emits a periodic summary line to Progress (0 disables).
	ReportEvery time.Duration
	// Progress receives the periodic summary lines; nil discards them.
	Progress io.Writer
	// Now is the injected clock; nil means time.Now.
	Now func() time.Time
}

// ModelResult is one model's outcome of a run.
type ModelResult struct {
	Sent, Responses, Errors, Timeouts uint64
	// Latencies holds one round-trip sample in seconds per successful
	// response, in arrival order.
	Latencies []float64
}

// Result is the client-side outcome of one run.
type Result struct {
	// Offered counts requests actually put on the wire; WriteErrors counts
	// requests that failed at the socket and never left.
	Offered     uint64
	Responses   uint64
	Errors      uint64 // server answered with the wire error flag
	Timeouts    uint64 // no answer by the end-of-run grace
	WriteErrors uint64
	// DecodeErrors counts inbound datagrams that failed to parse; they
	// attribute to no request (the request itself times out).
	DecodeErrors uint64
	// Elapsed is the wall-clock sending window — Duration unless the sender
	// itself saturated and overran.
	Elapsed  time.Duration
	PerModel map[uint16]*ModelResult
}

// OfferedRPS is the achieved wire arrival rate.
func (r *Result) OfferedRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Elapsed.Seconds()
}

// GoodputRPS is the successful-response rate over the sending window.
func (r *Result) GoodputRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Responses) / r.Elapsed.Seconds()
}

// ShedFrac is the fraction of offered requests that did not come back as
// successful responses.
func (r *Result) ShedFrac() float64 {
	if r.Offered == 0 {
		return 0
	}
	return 1 - float64(r.Responses)/float64(r.Offered)
}

// AllLatencies concatenates every model's samples, for aggregate
// percentiles.
func (r *Result) AllLatencies() []float64 {
	var all []float64
	for _, m := range r.PerModel {
		all = append(all, m.Latencies...)
	}
	return all
}

type pendingEntry struct {
	model  uint16
	sentAt time.Time
}

// connState is one socket plus the in-flight requests awaiting answers on
// it. Sharding the pending map per socket keeps the sender and that
// socket's receiver off a global lock.
type connState struct {
	conn    net.Conn
	bc      netbatch.BatchConn
	mu      sync.Mutex
	pending map[uint32]pendingEntry
}

// burst accumulates behind-schedule arrivals bound for one socket so they
// leave in a single batched write. All storage is retained across flushes.
type burst struct {
	cs     *connState
	buf    []byte
	ids    []uint32
	models []uint16
	msgs   []netbatch.Message
	// seq rotates burst destinations over the sockets.
	seq int
}

type generator struct {
	cfg   Config
	now   func() time.Time
	rng   *rand.Rand
	conns []*connState

	mu  sync.Mutex // guards res
	res *Result
}

// Run executes one open-loop load run and blocks until the sending window
// plus the response grace period have elapsed.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("loadgen: no server address")
	}
	if len(cfg.Models) == 0 {
		return nil, errors.New("loadgen: no models in the traffic mix")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate %v must be positive", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration %v must be positive", cfg.Duration)
	}
	switch cfg.Dist {
	case "":
		cfg.Dist = DistPoisson
	case DistPoisson, DistFixed:
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival distribution %q", cfg.Dist)
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	totalWeight := 0
	for _, m := range cfg.Models {
		if m.Width <= 0 {
			return nil, fmt.Errorf("loadgen: model %d width %d must be positive", m.ID, m.Width)
		}
		if m.Weight < 0 {
			return nil, fmt.Errorf("loadgen: model %d weight %d must not be negative", m.ID, m.Weight)
		}
		w := m.Weight
		if w == 0 {
			w = 1
		}
		totalWeight += w
	}

	g := &generator{
		cfg: cfg,
		now: cfg.Now,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x10ad)),
		res: &Result{PerModel: map[uint16]*ModelResult{}},
	}
	if g.now == nil {
		g.now = time.Now
	}
	for _, m := range cfg.Models {
		if _, dup := g.res.PerModel[m.ID]; dup {
			return nil, fmt.Errorf("loadgen: model %d listed twice in the mix", m.ID)
		}
		g.res.PerModel[m.ID] = &ModelResult{}
	}

	for i := 0; i < cfg.Conns; i++ {
		addr := cfg.Addrs[i%len(cfg.Addrs)]
		conn, err := net.Dial("udp", addr)
		if err != nil {
			for _, cs := range g.conns {
				cs.conn.Close()
			}
			return nil, fmt.Errorf("loadgen: dial %s: %w", addr, err)
		}
		g.conns = append(g.conns, &connState{
			conn:    conn,
			bc:      netbatch.WrapConn(conn, nil),
			pending: map[uint32]pendingEntry{},
		})
	}

	var wg sync.WaitGroup
	for _, cs := range g.conns {
		wg.Add(1)
		go func(cs *connState) {
			defer wg.Done()
			g.receive(cs)
		}(cs)
	}

	summaryDone := make(chan struct{})
	var summaryWG sync.WaitGroup
	if cfg.ReportEvery > 0 && cfg.Progress != nil {
		summaryWG.Add(1)
		go func() {
			defer summaryWG.Done()
			t := time.NewTicker(cfg.ReportEvery)
			defer t.Stop()
			start := g.now()
			for {
				select {
				case <-summaryDone:
					return
				case <-t.C:
					fmt.Fprintf(cfg.Progress, "%s\n", g.summaryLine(g.now().Sub(start)))
				}
			}
		}()
	}

	g.send(totalWeight)

	// Grace period: keep listening until every in-flight request is
	// answered or the per-request timeout has passed for all of them.
	grace := g.now().Add(cfg.Timeout)
	for g.outstanding() > 0 && g.now().Before(grace) {
		time.Sleep(2 * time.Millisecond)
	}
	for _, cs := range g.conns {
		cs.conn.Close()
	}
	wg.Wait()
	close(summaryDone)
	summaryWG.Wait()

	// Whatever is still pending now can never be answered: the sockets are
	// closed. Attribute each straggler to its model as a timeout.
	for _, cs := range g.conns {
		cs.mu.Lock()
		for _, pe := range cs.pending {
			g.res.Timeouts++
			g.res.PerModel[pe.model].Timeouts++
		}
		cs.pending = nil
		cs.mu.Unlock()
	}
	return g.res, nil
}

// send runs the arrival process to completion. It is the only goroutine
// touching the rng, so the offered sequence is a pure function of the seed.
func (g *generator) send(totalWeight int) {
	payloads := make(map[uint16][]byte, len(g.cfg.Models))
	for _, m := range g.cfg.Models {
		// Bright first half: the synthetic halves model answers class 0, so
		// a self-run can even check answers if it wants to.
		p := make([]byte, m.Width)
		for i := 0; i < m.Width/2; i++ {
			p[i] = 200
		}
		payloads[m.ID] = p
	}
	interval := float64(time.Second) / g.cfg.Rate
	start := g.now()
	var cum float64 // scheduled nanoseconds since start
	var id uint32
	var b burst
	for {
		if g.cfg.Dist == DistFixed {
			cum += interval
		} else {
			cum += g.rng.ExpFloat64() * interval
		}
		if time.Duration(cum) > g.cfg.Duration {
			break
		}
		// Open loop: sleep until the scheduled arrival. If we are behind,
		// send immediately — the backlog burst is part of the offered load,
		// not an excuse to thin it. Consecutive behind-schedule arrivals
		// accumulate and leave in one batched write (one sendmmsg on the
		// fast path) instead of one syscall each, so the sender itself
		// saturates later.
		if d := start.Add(time.Duration(cum)).Sub(g.now()); d > 0 {
			g.flushBurst(&b)
			time.Sleep(d)
		}
		id++
		spec := g.pick(totalWeight)
		g.queueArrival(&b, id, spec.ID, payloads[spec.ID])
		if len(b.ids) >= burstMax {
			g.flushBurst(&b)
		}
	}
	g.flushBurst(&b)
	g.mu.Lock()
	g.res.Elapsed = g.now().Sub(start)
	g.mu.Unlock()
}

// queueArrival encodes one query onto the open burst. Queries too large for
// one datagram flush the burst and travel as their own fragment batch.
func (g *generator) queueArrival(b *burst, id uint32, model uint16, payload []byte) {
	if len(payload) > nic.MaxFragPayload {
		g.flushBurst(b)
		g.sendFragmented(id, model, payload)
		return
	}
	if b.cs == nil {
		b.cs = g.conns[b.seq%len(g.conns)]
		b.seq++
	}
	var err error
	if b.buf, b.msgs, err = nic.AppendTrain(b.buf, b.msgs, id, model, 0, payload); err != nil {
		// Unencodable query (payload past the wire's length field): it never
		// reaches the socket, which is a write error by the books.
		g.countWriteError()
		return
	}
	b.ids = append(b.ids, id)
	b.models = append(b.models, model)
}

// flushBurst registers the burst's requests in-flight and writes every
// datagram through one batched write, attributing per-message outcomes the
// way the single-write path did: a sent message is offered, a refused one is
// a write error and leaves no pending entry.
func (g *generator) flushBurst(b *burst) {
	if len(b.ids) == 0 {
		b.cs = nil
		return
	}
	cs := b.cs
	now := g.now()
	cs.mu.Lock()
	for i, id := range b.ids {
		cs.pending[id] = pendingEntry{model: b.models[i], sentAt: now}
	}
	cs.mu.Unlock()
	ms := b.msgs
	base := 0
	for len(ms) > 0 {
		sent, err := cs.bc.WriteBatch(ms)
		g.mu.Lock()
		for i := base; i < base+sent; i++ {
			g.res.Offered++
			g.res.PerModel[b.models[i]].Sent++
		}
		g.mu.Unlock()
		base += sent
		ms = ms[sent:]
		if err != nil {
			if len(ms) == 0 {
				break
			}
			// ms[0] was refused: count it, unregister it, keep the rest
			// of the burst moving.
			g.countWriteError()
			cs.mu.Lock()
			delete(cs.pending, b.ids[base])
			cs.mu.Unlock()
			base++
			ms = ms[1:]
		}
	}
	b.cs = nil
	b.buf = b.buf[:0]
	b.msgs = b.msgs[:0]
	b.ids = b.ids[:0]
	b.models = b.models[:0]
}

// sendFragmented puts one over-sized query on the wire as a fragment burst:
// the whole train leaves in one batched write. Any refused fragment voids
// the query (the server's reassembly TTL reaps the partial), so it books as
// a write error.
func (g *generator) sendFragmented(id uint32, model uint16, payload []byte) {
	cs := g.conns[int(id)%len(g.conns)]
	_, ms, err := nic.AppendTrain(nil, nil, id, model, 0, payload)
	if err != nil {
		g.countWriteError()
		return
	}
	cs.mu.Lock()
	cs.pending[id] = pendingEntry{model: model, sentAt: g.now()}
	cs.mu.Unlock()
	for len(ms) > 0 {
		sent, werr := cs.bc.WriteBatch(ms)
		ms = ms[sent:]
		if werr != nil {
			g.countWriteError()
			cs.mu.Lock()
			delete(cs.pending, id)
			cs.mu.Unlock()
			return
		}
	}
	g.mu.Lock()
	g.res.Offered++
	g.res.PerModel[model].Sent++
	g.mu.Unlock()
}

// countWriteError books one request that never left the socket.
func (g *generator) countWriteError() {
	g.mu.Lock()
	g.res.WriteErrors++
	g.mu.Unlock()
}

// pick draws the next model from the mix, weight-proportionally.
func (g *generator) pick(totalWeight int) ModelSpec {
	r := g.rng.IntN(totalWeight)
	for _, m := range g.cfg.Models {
		w := m.Weight
		if w == 0 {
			w = 1
		}
		if r < w {
			return m
		}
		r -= w
	}
	return g.cfg.Models[len(g.cfg.Models)-1]
}

// receive drains one socket until it is closed, attributing every response
// to its in-flight request. Reads are batched — one recvmmsg drains several
// response datagrams on the fast path — and each datagram may pack several
// concatenated response frames (the wire protocol allows multi-frame
// datagrams).
func (g *generator) receive(cs *connState) {
	ms := netbatch.MakeMessages(rxBatch, rxBufSize)
	for {
		cnt, err := cs.bc.ReadBatch(ms)
		if err != nil {
			// Closed at end of run, or a transient ICMP-unreachable bounce;
			// either way this socket's run is over when closed, and a
			// transient error just drops one read.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		for i := 0; i < cnt; i++ {
			g.handleDatagram(cs, ms[i].Bytes())
		}
	}
}

// handleDatagram walks one rx datagram's coalesced response frames.
func (g *generator) handleDatagram(cs *connState, data []byte) {
	for len(data) > 0 {
		var msg nic.Message
		consumed, err := msg.DecodeNext(data)
		if err != nil {
			g.mu.Lock()
			g.res.DecodeErrors++
			g.mu.Unlock()
			return
		}
		data = data[consumed:]
		if !msg.IsResponse() {
			continue
		}
		cs.mu.Lock()
		pe, ok := cs.pending[msg.RequestID]
		if ok {
			delete(cs.pending, msg.RequestID)
		}
		cs.mu.Unlock()
		if !ok {
			continue // duplicate or stray response
		}
		lat := g.now().Sub(pe.sentAt).Seconds()
		g.mu.Lock()
		mr := g.res.PerModel[pe.model]
		if msg.IsError() {
			g.res.Errors++
			mr.Errors++
		} else {
			g.res.Responses++
			mr.Responses++
			mr.Latencies = append(mr.Latencies, lat)
		}
		g.mu.Unlock()
	}
}

// outstanding sums the in-flight requests across all sockets.
func (g *generator) outstanding() int {
	n := 0
	for _, cs := range g.conns {
		cs.mu.Lock()
		n += len(cs.pending)
		cs.mu.Unlock()
	}
	return n
}

// summaryLine renders the periodic progress line: cumulative counts plus
// running latency percentiles.
func (g *generator) summaryLine(elapsed time.Duration) string {
	g.mu.Lock()
	offered, responses, errs := g.res.Offered, g.res.Responses, g.res.Errors
	all := g.res.AllLatencies()
	g.mu.Unlock()
	line := fmt.Sprintf("[loadgen] t=%5.1fs offered %d, responses %d, errors %d, in-flight %d",
		elapsed.Seconds(), offered, responses, errs, g.outstanding())
	if len(all) > 0 {
		cdf := stats.NewCDF(all)
		line += fmt.Sprintf(", p50 %.2fms p99 %.2fms",
			cdf.Percentile(0.50)*1e3, cdf.Percentile(0.99)*1e3)
	}
	return line
}
