package frontdoor

import (
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

// TestTxBatcherGroupsByDestination: a flush sends each destination's
// datagrams next to each other, destinations in the order of their first
// datagram and each one's datagrams in the order they were queued — queued
// A B A C B A, it writes A A A B B C.
func TestTxBatcherGroupsByDestination(t *testing.T) {
	pc := fault.NewStubConn()
	pc.RecordWrites = true
	_, tx := newTestTx(pc)
	a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	b := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2}
	c := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 3}
	for i, addr := range []net.Addr{a, b, a, c, b, a} {
		tx.queue(&nic.Response{RequestID: uint32(i + 1), ModelID: 4, Probs: []uint8{0, 0}}, addr)
	}
	tx.flush()
	var ids []uint32
	for _, d := range pc.Sent() {
		var m nic.Message
		if err := m.Decode(d); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.RequestID)
	}
	if want := []uint32{1, 3, 6, 2, 5, 4}; !slices.Equal(ids, want) {
		t.Errorf("flushed request IDs %v, want %v (A A A B B C)", ids, want)
	}
}

// TestTxBatcherSteadyStateZeroAllocs is the batcher's AllocsPerRun guard
// (CI bench-smoke runs it by name): once the free list and pending storage
// are warm, queue+flush cycles of plain one-frame-per-response sends
// allocate nothing, to one client or regrouped from two interleaved ones.
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
			tx.flush() // regroups to a a b b
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("interleaved queue+flush allocates %.1f per cycle, want 0", allocs)
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
