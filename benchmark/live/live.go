// Package live serves a workload through a real loopback UDP socket in this
// process and drives it with closed-loop windowed clients, cutting the run
// into slices bracketed by the reference kernel so every host-time figure
// can be scaled by the host speed measured right beside it.
package live

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/benchmark/estimate"
	"github.com/lightning-smartnic/lightning/benchmark/trace"
	"github.com/lightning-smartnic/lightning/benchmark/workload"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// ReplyTimeout is how long a query may wait for its response before it
// counts as a timeout. A response later than this is not a good response.
const ReplyTimeout = 500 * time.Millisecond

// SliceDur is the timed window's slice length.
const SliceDur = 250 * time.Millisecond

// serverReadBuffer is the serve socket's receive buffer request: one
// fragmented query is a 109-datagram train that must fit beside the
// kernel's per-datagram bookkeeping (the kernel caps the request at
// net.core.rmem_max).
const serverReadBuffer = 8 << 20

// Server is a NIC serving one workload on a loopback UDP socket.
type Server struct {
	NIC  *lightning.NIC
	Addr *net.UDPAddr

	pc     *net.UDPConn
	cancel context.CancelFunc
	done   chan error
}

// Listen opens the serve socket. It is separate from Start so the harness
// can build its client sockets and buffers before the live-heap baseline is
// read, and construct the NIC after it.
func Listen() (*net.UDPConn, error) {
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("live: opening serve socket: %w", err)
	}
	if err := pc.SetReadBuffer(serverReadBuffer); err != nil {
		pc.Close()
		return nil, fmt.Errorf("live: sizing serve socket buffer: %w", err)
	}
	return pc, nil
}

// NewNIC builds the workload's NIC and registers its model: the
// construction setup_s times.
func NewNIC(w *workload.Workload) (*lightning.NIC, error) {
	n, err := lightning.New(w.NICConfig())
	if err != nil {
		return nil, err
	}
	if err := n.RegisterModel(workload.ModelID, w.Name, w.Model); err != nil {
		return nil, err
	}
	return n, nil
}

// Start attaches a NIC to the serve socket with the workload's server entry
// point. ctx bounds the serve loop; Stop ends it.
func Start(ctx context.Context, w *workload.Workload, n *lightning.NIC, pc *net.UDPConn) *Server {
	ctx, cancel := context.WithCancel(ctx)
	s := &Server{NIC: n, Addr: pc.LocalAddr().(*net.UDPAddr), pc: pc, cancel: cancel, done: make(chan error, 1)}
	go func() {
		if w.Workers > 0 {
			s.done <- n.ServeUDPWorkers(ctx, pc, w.Workers)
		} else {
			s.done <- n.ServeUDP(ctx, pc)
		}
	}()
	return s
}

// Stop cancels the serve loop, waits for it to drain and return, and closes
// the NIC and the socket.
func (s *Server) Stop() error {
	s.cancel()
	err := <-s.done
	if cerr := s.NIC.Close(); err == nil {
		err = cerr
	}
	if cerr := s.pc.Close(); err == nil {
		err = cerr
	}
	return err
}

// Counts is the failure accounting of a run: every query sent ends in
// exactly one of good, Err, Timeout — or, when its reply could not be
// parsed, Undecodable (and then Timeout, once its slot expires).
type Counts struct {
	Sent uint64
	// Good counts non-Err responses received within ReplyTimeout; Wrong is
	// the subset whose class differs from the noiseless oracle's.
	Good, Wrong uint64
	// Err counts Err-flagged responses, Undecodable datagrams or frames
	// that failed to decode, Timeout queries with no reply in time, Late
	// replies that arrived after their query had timed out.
	Err, Undecodable, Timeout, Late uint64
}

// Add accumulates another tally.
func (c *Counts) Add(o Counts) {
	c.Sent += o.Sent
	c.Good += o.Good
	c.Wrong += o.Wrong
	c.Err += o.Err
	c.Undecodable += o.Undecodable
	c.Timeout += o.Timeout
	c.Late += o.Late
}

// Sub removes an earlier snapshot of the same tally.
func (c *Counts) Sub(o Counts) {
	c.Sent -= o.Sent
	c.Good -= o.Good
	c.Wrong -= o.Wrong
	c.Err -= o.Err
	c.Undecodable -= o.Undecodable
	c.Timeout -= o.Timeout
	c.Late -= o.Late
}

// OKFrac is good responses over queries sent.
func (c Counts) OKFrac() float64 {
	if c.Sent == 0 {
		return 0
	}
	return float64(c.Good) / float64(c.Sent)
}

// AgreeFrac is responses whose class equals the oracle's over responses.
func (c Counts) AgreeFrac() float64 {
	if c.Good+c.Err == 0 {
		return 0
	}
	return float64(c.Good-c.Wrong) / float64(c.Good+c.Err)
}

// Failed is queries sent that did not end in a good response.
func (c Counts) Failed() uint64 { return c.Sent - c.Good }

// Slice bounds one slice of a run: the clients stop issuing new queries
// once Dur has elapsed (when positive) or once Queries have been issued in
// total across connections (when positive), then drain what is outstanding.
type Slice struct {
	Dur     time.Duration
	Queries int
}

// SliceStats is what one slice measured, unscaled, plus the mean duration of
// the reference kernel runs bracketing it.
type SliceStats struct {
	RefUS   float64
	Elapsed time.Duration
	Good    int
	// P50, P99 and Mean describe the slice's good-response latencies, µs.
	P50, P99, Mean float64
	CPUUS          float64 // process user+sys µs
}

// slot is one outstanding query of a connection's window.
type slot struct {
	id   uint32
	pool int
	sent time.Time
	busy bool
}

// conn is one client connection: a connected UDP socket seen through the
// batch seam, a window of slots, and retained tx/rx scratch.
type conn struct {
	w     *workload.Workload
	index uint32
	uc    *net.UDPConn
	bc    netbatch.BatchConn
	ctr   netbatch.Counters

	slots   []slot
	busy    int
	seq     uint32
	cursor  int
	armedAt time.Time

	rx     []netbatch.Message
	txBuf  []byte
	txOffs []int
	txMsgs []netbatch.Message

	counts Counts
	lat    []float64 // good-response latencies of the current slice, µs

	rec *trace.Recorder
	// Traced-query instants (window 1 only): t[0] send start, t[1] encoded,
	// t[2] written.
	t [3]time.Time
}

// Client is a workload's set of client connections.
type Client struct {
	conns []*conn
	ref   *estimate.Ref
}

// Dial opens conns client connections of window slots each toward addr (0
// selects the workload's own count or window) and preallocates all client
// scratch.
func Dial(w *workload.Workload, addr *net.UDPAddr, conns, window int, ref *estimate.Ref) (*Client, error) {
	if conns <= 0 {
		conns = w.Conns
	}
	if window <= 0 {
		window = w.Window
	}
	if window > 16 {
		return nil, fmt.Errorf("live: window %d exceeds the 16 slots a request ID encodes", window)
	}
	c := &Client{ref: ref}
	for i := 0; i < conns; i++ {
		uc, err := net.DialUDP("udp4", nil, addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("live: dialing %s: %w", addr, err)
		}
		cn := &conn{
			w:      w,
			index:  uint32(i),
			uc:     uc,
			slots:  make([]slot, window),
			cursor: i * workload.PoolSize / conns,
			rx:     netbatch.MakeMessages(window, 2048),
			txBuf:  make([]byte, 0, window*w.Fragments*(nic.WireHeaderLen+nic.MaxFragPayload)),
			lat:    make([]float64, 0, 1<<17),
		}
		cn.bc = netbatch.WrapConn(uc, &cn.ctr)
		c.conns = append(c.conns, cn)
	}
	return c, nil
}

// Close releases the client sockets.
func (c *Client) Close() {
	for _, cn := range c.conns {
		cn.uc.Close()
	}
}

// Trace makes the next slices record client spans into rec (nil stops).
// Only a single window-1 connection can be traced.
func (c *Client) Trace(rec *trace.Recorder) error {
	if rec != nil && (len(c.conns) != 1 || len(c.conns[0].slots) != 1) {
		return errors.New("live: tracing needs one connection at window 1")
	}
	for _, cn := range c.conns {
		cn.rec = rec
	}
	return nil
}

// Counts returns the failure accounting accumulated so far.
func (c *Client) Counts() Counts {
	var total Counts
	for _, cn := range c.conns {
		total.Add(cn.counts)
	}
	return total
}

// Syscalls returns the client side's batch-seam read and write call counts.
func (c *Client) Syscalls() (reads, writes uint64) {
	for _, cn := range c.conns {
		reads += cn.ctr.ReadCalls.Load()
		writes += cn.ctr.WriteCalls.Load()
	}
	return reads, writes
}

// cpuUS is the process's user+system CPU time in microseconds.
func cpuUS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("live: getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// Run drives slices one after another. Before the first and after every
// slice it runs the reference kernel with no query outstanding; slice i's
// RefUS is the mean of the two runs bracketing it. It returns one SliceStats
// per slice.
func (c *Client) Run(slices []Slice) ([]SliceStats, error) {
	out := make([]SliceStats, 0, len(slices))
	refBefore := c.ref.Run()
	for _, sl := range slices {
		st, err := c.runSlice(sl)
		if err != nil {
			return out, err
		}
		refAfter := c.ref.Run()
		st.RefUS = (refBefore + refAfter) / 2
		refBefore = refAfter
		out = append(out, st)
	}
	return out, nil
}

func (c *Client) runSlice(sl Slice) (SliceStats, error) {
	for _, cn := range c.conns {
		cn.lat = cn.lat[:0]
	}
	perConn := 0
	if sl.Queries > 0 {
		perConn = (sl.Queries + len(c.conns) - 1) / len(c.conns)
	}
	cpu0, err := cpuUS()
	if err != nil {
		return SliceStats{}, err
	}
	start := time.Now()
	errs := make([]error, len(c.conns))
	if len(c.conns) == 1 {
		errs[0] = c.conns[0].runSlice(start, sl.Dur, perConn)
	} else {
		var wg sync.WaitGroup
		for i, cn := range c.conns {
			wg.Add(1)
			go func(i int, cn *conn) {
				defer wg.Done()
				errs[i] = cn.runSlice(start, sl.Dur, perConn)
			}(i, cn)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	cpu1, err := cpuUS()
	if err != nil {
		return SliceStats{}, err
	}
	if err := errors.Join(errs...); err != nil {
		return SliceStats{}, err
	}
	lat := c.conns[0].lat
	for _, cn := range c.conns[1:] {
		lat = append(lat, cn.lat...)
	}
	c.conns[0].lat = lat[:0]
	st := SliceStats{Elapsed: elapsed, Good: len(lat), CPUUS: cpu1 - cpu0}
	if len(lat) == 0 {
		// Nothing came back (the failure counters say why); a slice with no
		// sample has no percentile.
		return st, nil
	}
	sort.Float64s(lat)
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	st.P50, st.P99 = estimate.Percentile(lat, 50), estimate.Percentile(lat, 99)
	st.Mean = sum / float64(len(lat))
	return st, nil
}

// runSlice is one connection's share of a slice: keep the window full until
// the slice's time or query budget is spent, then drain.
func (cn *conn) runSlice(start time.Time, dur time.Duration, queries int) error {
	issued := 0
	now := start
	open := func() bool {
		return (queries == 0 || issued < queries) && (dur == 0 || now.Sub(start) < dur)
	}
	if err := cn.refill(now, open, &issued); err != nil {
		return err
	}
	for cn.busy > 0 {
		if now.Sub(cn.armedAt) > 50*time.Millisecond {
			// Re-arm rarely, far enough ahead that the deadline never
			// undercuts ReplyTimeout: arming is not free, and per read it
			// would be client cost charged to every query.
			if err := cn.bc.SetReadDeadline(now.Add(ReplyTimeout + 100*time.Millisecond)); err != nil {
				return fmt.Errorf("live: arming client read deadline: %w", err)
			}
			cn.armedAt = now
		}
		cnt, err := cn.bc.ReadBatch(cn.rx)
		now = time.Now()
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				return fmt.Errorf("live: client read: %w", err)
			}
			cn.expire(now)
			cn.armedAt = time.Time{}
		}
		for i := 0; i < cnt; i++ {
			cn.receive(cn.rx[i].Bytes(), now)
		}
		if cn.rec != nil {
			// The traced query's own bookkeeping is over; restart the clock
			// for the next one so recording cost stays out of its spans.
			now = time.Now()
		}
		if err := cn.refill(now, open, &issued); err != nil {
			return err
		}
	}
	return nil
}

// refill issues a new query on every free slot while the slice is open and
// sends them all in one batched write.
func (cn *conn) refill(now time.Time, open func() bool, issued *int) error {
	cn.txBuf = cn.txBuf[:0]
	cn.txOffs = cn.txOffs[:0]
	n := 0
	for i := range cn.slots {
		s := &cn.slots[i]
		if s.busy || !open() {
			continue
		}
		cn.seq++
		s.id = cn.index<<28 | (cn.seq&0xffffff)<<4 | uint32(i)
		s.pool = cn.cursor
		cn.cursor = (cn.cursor + 1) % len(cn.w.Pool)
		s.sent = now
		if n > 0 || cn.rec != nil {
			s.sent = time.Now()
		}
		cn.t[0] = s.sent
		msgs, err := nic.Fragment(s.id, workload.ModelID, cn.w.Pool[s.pool], nic.MaxFragPayload)
		if err != nil {
			return fmt.Errorf("live: fragmenting query: %w", err)
		}
		for _, m := range msgs {
			cn.txOffs = append(cn.txOffs, len(cn.txBuf))
			if cn.txBuf, err = m.AppendEncode(cn.txBuf); err != nil {
				return fmt.Errorf("live: encoding query: %w", err)
			}
		}
		s.busy = true
		cn.busy++
		cn.counts.Sent++
		*issued++
		n++
	}
	if n == 0 {
		return nil
	}
	cn.txMsgs = cn.txMsgs[:0]
	for i, off := range cn.txOffs {
		end := len(cn.txBuf)
		if i+1 < len(cn.txOffs) {
			end = cn.txOffs[i+1]
		}
		cn.txMsgs = append(cn.txMsgs, netbatch.Message{Buf: cn.txBuf[off:end], N: end - off})
	}
	if cn.rec != nil {
		cn.t[1] = time.Now()
	}
	if _, err := cn.bc.WriteBatch(cn.txMsgs); err != nil {
		return fmt.Errorf("live: client write: %w", err)
	}
	if cn.rec != nil {
		cn.t[2] = time.Now()
	}
	return nil
}

// receive walks the response frames of one datagram.
func (cn *conn) receive(data []byte, now time.Time) {
	for len(data) > 0 {
		var m nic.Message
		consumed, err := m.DecodeNext(data)
		if err != nil {
			cn.counts.Undecodable++
			return
		}
		data = data[consumed:]
		i := int(m.RequestID & 15)
		if i >= len(cn.slots) || !cn.slots[i].busy || cn.slots[i].id != m.RequestID {
			cn.counts.Late++
			continue
		}
		s := &cn.slots[i]
		s.busy = false
		cn.busy--
		resp, err := nic.ParseResponse(&m)
		if err != nil {
			cn.counts.Undecodable++
			continue
		}
		var decoded time.Time
		if cn.rec != nil {
			decoded = time.Now()
		}
		switch {
		case resp.Err:
			cn.counts.Err++
		case now.Sub(s.sent) > ReplyTimeout:
			cn.counts.Timeout++
		default:
			cn.counts.Good++
			if int(resp.Class) != cn.w.Oracle[s.pool] {
				cn.counts.Wrong++
			}
			cn.lat = append(cn.lat, float64(now.Sub(s.sent))/float64(time.Microsecond))
		}
		if cn.rec != nil {
			checked := time.Now()
			q := int32(cn.seq) - 1
			root := cn.rec.Add("client.query", -1, q, cn.t[0], checked)
			cn.rec.Add("nic.encode", root, q, cn.t[0], cn.t[1])
			cn.rec.Add("netbatch.write", root, q, cn.t[1], cn.t[2])
			cn.rec.Add("wire.wait", root, q, cn.t[2], now)
			cn.rec.Add("nic.decode", root, q, now, decoded)
			cn.rec.Add("oracle.check", root, q, decoded, checked)
		}
	}
}

// expire frees every slot whose query has waited past ReplyTimeout.
func (cn *conn) expire(now time.Time) {
	for i := range cn.slots {
		s := &cn.slots[i]
		if s.busy && now.Sub(s.sent) > ReplyTimeout {
			s.busy = false
			cn.busy--
			cn.counts.Timeout++
		}
	}
}

// HeapAllocMB forces two collections and returns the live heap in MB.
func HeapAllocMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
