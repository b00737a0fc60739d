package frontdoor

import (
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// newTestTx builds a front door and its tx batcher over a stub conn.
func newTestTx(pc *fault.StubConn) (*Door, *txBatcher) {
	d := New(nic.NewReassembler(16), nic.AdmissionConfig{}, time.Now)
	return d, &txBatcher{d: d, bc: netbatch.Wrap(pc, &d.ctr)}
}

// TestTxBatcherWriteErrorSkipsAndCounts: a refused write counts once per
// lost response and never abandons the rest of the flush (here every write
// fails, so every pending response is counted and the batch still clears).
func TestTxBatcherWriteErrorSkipsAndCounts(t *testing.T) {
	pc := fault.NewStubConn()
	pc.FailWrites = true
	d, tx := newTestTx(pc)
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1111}
	for id := uint32(1); id <= 3; id++ {
		tx.queue(&nic.Response{RequestID: id, ModelID: 4, Probs: []uint8{0, 0}}, addr)
	}
	tx.flush()
	if got := d.Stats().WriteErrors; got != 3 {
		t.Errorf("WriteErrors = %d, want 3", got)
	}
	if pc.Writes() != 0 {
		t.Errorf("writes = %d, want 0 (every write refused)", pc.Writes())
	}
	// The batch cleared despite the failures: recovery writes go through.
	pc.FailWrites = false
	tx.queue(&nic.Response{RequestID: 9, ModelID: 4, Probs: []uint8{0, 0}}, addr)
	tx.flush()
	if pc.Writes() != 1 {
		t.Errorf("post-recovery writes = %d, want 1", pc.Writes())
	}
}

// recordConn is a batch seam that records every datagram written, with its
// destination, and refuses every datagram bound for refuse.
type recordConn struct {
	refuse net.Addr
	sent   []netbatch.Message
}

func (c *recordConn) ReadBatch([]netbatch.Message) (int, error) { return 0, fault.ErrTimeout }
func (c *recordConn) SetReadDeadline(time.Time) error           { return nil }
func (c *recordConn) FastPath() bool                            { return true }

func (c *recordConn) WriteBatch(ms []netbatch.Message) (int, error) {
	for i := range ms {
		if c.refuse != nil && ms[i].Addr == c.refuse {
			return i, errors.New("write refused")
		}
		b := slices.Clone(ms[i].Bytes())
		c.sent = append(c.sent, netbatch.Message{Buf: b, N: len(b), Addr: ms[i].Addr})
	}
	return len(ms), nil
}

// newRecordTx builds a front door and its tx batcher over a recordConn.
func newRecordTx(refuse net.Addr) (*Door, *txBatcher, *recordConn) {
	d := New(nic.NewReassembler(16), nic.AdmissionConfig{}, time.Now)
	c := &recordConn{refuse: refuse}
	return d, &txBatcher{d: d, bc: c}, c
}

// frameIDs walks a datagram's frames, as every receiver does, and returns
// their request IDs.
func frameIDs(t testing.TB, d []byte) []uint32 {
	t.Helper()
	var ids []uint32
	for len(d) > 0 {
		var m nic.Message
		k, err := m.DecodeNext(d)
		if err != nil {
			t.Fatalf("malformed frame in a response datagram: %v", err)
		}
		ids = append(ids, m.RequestID)
		d = d[k:]
	}
	return ids
}

// sentIDs lists the request IDs of each recorded datagram.
func (c *recordConn) sentIDs(t testing.TB) [][]uint32 {
	t.Helper()
	out := make([][]uint32, len(c.sent))
	for i := range c.sent {
		out[i] = frameIDs(t, c.sent[i].Bytes())
	}
	return out
}

// response is a response to request id with probs probability codes.
func response(id uint32, probs int) *nic.Response {
	return &nic.Response{RequestID: id, ModelID: 4, Class: 1, Probs: make([]uint8, probs)}
}

var (
	addrA net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	addrB net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2}
	addrC net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 3}
)

// TestTxBatcherPacksOneClientsFlush: the eight responses of one client's
// read leave as one datagram of eight frames, in queue order, counted as
// one datagram in the tx histogram.
func TestTxBatcherPacksOneClientsFlush(t *testing.T) {
	d, tx, c := newRecordTx(nil)
	for id := uint32(1); id <= 8; id++ {
		tx.queue(response(id, 2), addrA)
	}
	tx.flush()
	if got, want := c.sentIDs(t), [][]uint32{{1, 2, 3, 4, 5, 6, 7, 8}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("datagrams carry %v, want %v", got, want)
	}
	if h := d.Stats().TxBatchSize; h.Count != 1 || h.Sum != 1 {
		t.Errorf("TxBatchSize Count %d Sum %d, want 1 and 1", h.Count, h.Sum)
	}
}

// TestTxBatcherGroupsByDestination: a flush packs each destination's
// responses into its own datagram, destinations in the order of their first
// response and each one's frames in the order they were queued — two
// interleaved clients get one datagram each, and queued A B A C B A leaves
// as [A A A] [B B] [C].
func TestTxBatcherGroupsByDestination(t *testing.T) {
	for _, c := range []struct {
		order []net.Addr
		want  [][]uint32
	}{
		{[]net.Addr{addrA, addrB, addrA, addrB, addrA, addrB, addrA, addrB}, [][]uint32{{1, 3, 5, 7}, {2, 4, 6, 8}}},
		{[]net.Addr{addrA, addrB, addrA, addrC, addrB, addrA}, [][]uint32{{1, 3, 6}, {2, 5}, {4}}},
	} {
		_, tx, rc := newRecordTx(nil)
		for i, addr := range c.order {
			tx.queue(response(uint32(i+1), 2), addr)
		}
		tx.flush()
		got := rc.sentIDs(t)
		if !slices.EqualFunc(got, c.want, slices.Equal) {
			t.Fatalf("datagrams carry %v, want %v", got, c.want)
		}
		for i, m := range rc.sent {
			if m.Addr != c.order[got[i][0]-1] {
				t.Errorf("datagram %d went to %v, not its frames' destination", i, m.Addr)
			}
		}
	}
}

// TestTxBatcherSplitsAtBound: responses past maxPacked split at frame
// boundaries into datagrams of at most maxPacked bytes, each overflow
// datagram next to its destination's previous one; a response longer than
// the bound on its own leaves alone.
func TestTxBatcherSplitsAtBound(t *testing.T) {
	const probs = 300 // a 314-byte frame: four fit under 1 412 bytes
	_, tx, c := newRecordTx(nil)
	for id := uint32(1); id <= 10; id++ {
		addr := addrA
		if id%5 == 0 {
			addr = addrB
		}
		tx.queue(response(id, probs), addr)
	}
	tx.queue(response(11, maxPacked), addrA)
	tx.queue(response(12, 2), addrA)
	tx.flush()
	want := [][]uint32{{1, 2, 3, 4}, {6, 7, 8, 9}, {11}, {12}, {5, 10}}
	if got := c.sentIDs(t); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("datagrams carry %v, want %v", got, want)
	}
	for i, m := range c.sent {
		if m.N > maxPacked && len(want[i]) > 1 {
			t.Errorf("datagram %d of %d frames is %d bytes, over the %d-byte bound", i, len(want[i]), m.N, maxPacked)
		}
	}

	// Two 706-byte frames fill a datagram exactly; 706 and 707 do not fit.
	_, tx, c = newRecordTx(nil)
	tx.queue(response(1, maxPacked/2-14), addrA)
	tx.queue(response(2, maxPacked/2-14), addrA)
	tx.queue(response(3, maxPacked/2-14), addrB)
	tx.queue(response(4, maxPacked/2-13), addrB)
	tx.flush()
	want = [][]uint32{{1, 2}, {3}, {4}}
	if got := c.sentIDs(t); !slices.EqualFunc(got, want, slices.Equal) || c.sent[0].N != maxPacked {
		t.Errorf("datagrams carry %v, first %d bytes; want %v, first %d", got, c.sent[0].N, want, maxPacked)
	}
}

// TestTxBatcherRefusedDatagramCountsEachResponse: a refused datagram loses
// every response packed in it, and each counts one write error; the other
// client's datagram still leaves. A response that fails to encode counts
// one and leaves its destination's datagram as it was.
func TestTxBatcherRefusedDatagramCountsEachResponse(t *testing.T) {
	d, tx, c := newRecordTx(addrA)
	for i, addr := range []net.Addr{addrA, addrB, addrA, addrB, addrA} {
		tx.queue(response(uint32(i+1), 2), addr)
	}
	tx.queue(response(6, 1<<16), addrB) // past the wire's 16-bit length
	tx.flush()
	if got := d.Stats().WriteErrors; got != 4 {
		t.Errorf("WriteErrors = %d, want 4 (three refused responses, one unencodable)", got)
	}
	if got, want := c.sentIDs(t), [][]uint32{{2, 4}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("datagrams carry %v, want %v", got, want)
	}
}

// FuzzTxPackRoundTrip queues responses of arbitrary sizes to arbitrary
// destinations, with flushes between some, and checks what leaves: each
// destination's responses decode back in queue order, no datagram of
// several frames exceeds maxPacked, and each flush sends a destination's
// datagrams next to each other.
func FuzzTxPackRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 0, 2, 0, 0, 2, 1, 0, 2})
	f.Add([]byte{0, 1, 44, 0, 1, 44, 0, 1, 44, 0, 1, 44, 0, 1, 44, 2, 0, 2})
	f.Add([]byte{0, 5, 120, 0x80, 0, 2, 3, 6, 0})
	f.Add([]byte{0, 1, 44, 1, 0, 2, 0, 1, 44, 0, 1, 44, 0, 1, 44, 0, 1, 44, 1, 0, 2})
	f.Add([]byte{0, 2, 0xb4, 0, 2, 0xb5, 1, 2, 0xb4, 1, 2, 0xb4}) // 706 + 707 bytes, 706 + 706
	addrs := []net.Addr{addrA, addrB, addrC, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4}}
	f.Fuzz(func(t *testing.T, ops []byte) {
		_, tx, c := newRecordTx(nil)
		queued := make(map[net.Addr][]uint32)
		var flushEnds []int // len(c.sent) after each flush
		for i := 0; i+3 <= len(ops); i += 3 {
			if ops[i]&0x80 != 0 {
				tx.flush()
				flushEnds = append(flushEnds, len(c.sent))
			}
			id := uint32(i/3 + 1)
			addr := addrs[ops[i]&3]
			tx.queue(response(id, (int(ops[i+1])<<8|int(ops[i+2]))%1600), addr)
			queued[addr] = append(queued[addr], id)
		}
		tx.flush()
		flushEnds = append(flushEnds, len(c.sent))
		got := make(map[net.Addr][]uint32)
		from := 0
		for _, end := range flushEnds {
			seen := make(map[net.Addr]bool)
			for i := from; i < end; i++ {
				m := c.sent[i]
				ids := frameIDs(t, m.Bytes())
				if len(ids) > 1 && m.N > maxPacked {
					t.Fatalf("datagram of %d frames is %d bytes, over %d", len(ids), m.N, maxPacked)
				}
				if seen[m.Addr] && c.sent[i-1].Addr != m.Addr {
					t.Fatalf("a flush sent %v's datagrams apart", m.Addr)
				}
				seen[m.Addr] = true
				got[m.Addr] = append(got[m.Addr], ids...)
			}
			from = end
		}
		for _, addr := range addrs {
			if !slices.Equal(got[addr], queued[addr]) {
				t.Fatalf("%v received %v, queued %v", addr, got[addr], queued[addr])
			}
		}
	})
}

// TestTxBatcherSteadyStateZeroAllocs is the batcher's AllocsPerRun guard
// (CI bench-smoke runs it by name): once the free list and pending storage
// are warm, queue+flush cycles allocate nothing — packed for one client,
// for two interleaved ones, or split past the datagram bound.
func TestTxBatcherSteadyStateZeroAllocs(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		_, tx := newTestTx(fault.NewStubConn())
		addr := net.Addr(fault.Addr{})
		resp := &nic.Response{RequestID: 1, ModelID: 4, Class: 1, Probs: []uint8{3, 250}}
		cycle := func() {
			tx.queue(resp, addr)
			tx.queue(resp, addr)
			tx.flush()
		}
		for i := 0; i < 8; i++ {
			cycle() // warm the free list and pending capacity
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("queue+flush allocates %.1f per cycle, want 0", allocs)
		}
	})
	t.Run("grouped", func(t *testing.T) {
		_, tx := newTestTx(fault.NewStubConn())
		a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
		b := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2}
		resp := &nic.Response{RequestID: 1, ModelID: 4, Class: 1, Probs: []uint8{3, 250}}
		cycle := func() {
			for _, addr := range []net.Addr{a, b, a, b} {
				tx.queue(resp, addr)
			}
			tx.flush() // packs one datagram for a, one for b
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("interleaved queue+flush allocates %.1f per cycle, want 0", allocs)
		}
	})
	t.Run("split", func(t *testing.T) {
		_, tx := newTestTx(fault.NewStubConn())
		a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
		b := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2}
		resp := &nic.Response{RequestID: 1, ModelID: 4, Class: 1, Probs: make([]uint8, 600)}
		cycle := func() {
			for _, addr := range []net.Addr{a, b, a, b, a, b} {
				tx.queue(resp, addr)
			}
			tx.flush() // two datagrams each: a's second goes in before b's first
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("queue+flush past the bound allocates %.1f per cycle, want 0", allocs)
		}
	})
}

// TestStatsLine pins the operator's rendering of one fixed snapshot, with
// every optional section present, and the bare form before the wire has
// moved anything.
func TestStatsLine(t *testing.T) {
	s := Stats{
		QueueFull: 5, Shed: 2, DecodeErrors: 3, WriteErrors: 1, DeadlineErrors: 4, Truncated: 6,
		AdmissionDrops:    map[uint16]uint64{7: 2, 4: 3},
		QueueDepth:        map[uint16]int{4: 1, 7: 2},
		RxBatchSize:       SizeHist{Count: 4, Sum: 10},
		TxBatchSize:       SizeHist{Count: 5, Sum: 5},
		InlineBatchSize:   SizeHist{Count: 2, Sum: 7},
		CoalescedFrames:   7,
		OversizedCoalesce: 1,
		RxSyscalls:        6, TxSyscalls: 4,
		GRO: true,
	}
	const want = "queue-full 5, shed 2, decode-err 3, write-err 1 | admission drops [4:3 7:2] | admitted backlog 3" +
		" | wire: rx-batch mean 2.5, tx-batch mean 1.0, syscalls rx 6 tx 4 (2.50/query), inline-batch mean 3.5" +
		", offload gso off gro on" +
		", truncated 6, coalesced frames 7 (oversized drops 1), deadline-err 4"
	if got := s.Line(4); got != want {
		t.Errorf("Line =\n %q\nwant\n %q", got, want)
	}
	if got := (Stats{QueueFull: 1}).Line(0); got != "queue-full 1, shed 0, decode-err 0, write-err 0" {
		t.Errorf("idle Line = %q", got)
	}
}
