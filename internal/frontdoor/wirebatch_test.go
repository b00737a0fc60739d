package frontdoor

import (
	"net"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// countDecodableFrames walks data with the same strict length-prefix policy
// the serve path uses and returns how many complete frames decode before
// the first error.
func countDecodableFrames(data []byte) int {
	n := 0
	for len(data) > 0 {
		var m nic.Message
		consumed, err := m.DecodeNext(data)
		if err != nil {
			return n
		}
		data = data[consumed:]
		n++
	}
	return n
}

// newTestTx builds a front door with the given wire policy and its tx
// batcher over a stub conn.
func newTestTx(wire WireConfig, pc *fault.StubConn) (*Door, *txBatcher) {
	d := New(nic.NewReassembler(16), wire, nic.AdmissionConfig{}, time.Now)
	return d, newTxBatcher(d, netbatch.Wrap(pc, &d.ctr))
}

// TestTxBatcherCoalescePacking drives the opt-in tx frame coalescer: same-
// destination responses pack as concatenated frames into one datagram,
// destinations never mix, and every packed datagram respects the MTU bound.
func TestTxBatcherCoalescePacking(t *testing.T) {
	pc := fault.NewStubConn()
	pc.RecordWrites = true
	_, tx := newTestTx(WireConfig{TxCoalesce: true}, pc)
	addrA := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1111}
	addrB := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2222}
	resp := func(id uint32) *nic.Response {
		return &nic.Response{RequestID: id, ModelID: 4, Class: 1, Probs: []uint8{9, 200}}
	}
	tx.queue(resp(1), addrA)
	tx.queue(resp(2), addrA)
	tx.queue(resp(3), addrB)
	tx.queue(resp(4), addrA)
	tx.flush()
	sent := pc.Sent()
	if len(sent) != 2 {
		t.Fatalf("datagrams = %d, want 2 (one per destination)", len(sent))
	}
	// Flush order follows first-queue order: A's packed datagram, then B's.
	var gotA []uint32
	data := sent[0]
	for len(data) > 0 {
		var m nic.Message
		consumed, derr := m.DecodeNext(data)
		if derr != nil {
			t.Fatalf("packed datagram failed decode: %v", derr)
		}
		data = data[consumed:]
		gotA = append(gotA, m.RequestID)
	}
	if len(gotA) != 3 || gotA[0] != 1 || gotA[1] != 2 || gotA[2] != 4 {
		t.Errorf("destination A frames = %v, want [1 2 4]", gotA)
	}
	if got := countDecodableFrames(sent[1]); got != 1 {
		t.Errorf("destination B frames = %d, want 1", got)
	}
	// A fresh flush with nothing queued writes nothing.
	before := pc.Writes()
	tx.flush()
	if pc.Writes() != before {
		t.Error("empty flush wrote datagrams")
	}
}

// TestTxBatcherCoalesceMTUBound packs responses against a tiny MTU: the
// open datagram closes at the bound and later responses open fresh ones, so
// no datagram ever exceeds the MTU.
func TestTxBatcherCoalesceMTUBound(t *testing.T) {
	// One response frame here is 12 (header) + 2 (class) + 2 (probs) = 16
	// bytes; MTU 40 fits two frames but not three.
	pc := fault.NewStubConn()
	pc.RecordWrites = true
	_, tx := newTestTx(WireConfig{TxCoalesce: true, MTU: 40}, pc)
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1111}
	for id := uint32(1); id <= 5; id++ {
		tx.queue(&nic.Response{RequestID: id, ModelID: 4, Class: 0, Probs: []uint8{1, 2}}, addr)
	}
	tx.flush()
	sent := pc.Sent()
	if len(sent) != 3 {
		t.Fatalf("datagrams = %d, want 3 (2+2+1 frames under MTU 40)", len(sent))
	}
	total := 0
	for i, d := range sent {
		if len(d) > 40 {
			t.Errorf("datagram %d is %d bytes, exceeds MTU 40", i, len(d))
		}
		total += countDecodableFrames(d)
	}
	if total != 5 {
		t.Errorf("total frames across datagrams = %d, want 5", total)
	}
}

// TestTxBatcherWriteErrorSkipsAndCounts: a refused write counts once per
// lost response and never abandons the rest of the flush (here every write
// fails, so every pending response is counted and the batch still clears).
func TestTxBatcherWriteErrorSkipsAndCounts(t *testing.T) {
	pc := fault.NewStubConn()
	pc.FailWrites = true
	d, tx := newTestTx(WireConfig{}, pc)
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

// TestTxBatcherSteadyStateZeroAllocs is the coalescer's AllocsPerRun guard
// (CI bench-smoke runs it by name): once the free list and pending storage
// are warm, queue+flush cycles allocate nothing — in both accumulation
// modes.
func TestTxBatcherSteadyStateZeroAllocs(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		name := "plain"
		if coalesce {
			name = "coalesce"
		}
		t.Run(name, func(t *testing.T) {
			_, tx := newTestTx(WireConfig{TxCoalesce: coalesce}, fault.NewStubConn())
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
				t.Errorf("%s queue+flush allocates %.1f per cycle, want 0", name, allocs)
			}
		})
	}
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
		CoalescedFrames:   7,
		OversizedCoalesce: 1,
		RxSyscalls:        6, TxSyscalls: 4,
		GRO: true,
	}
	const want = "queue-full 5, shed 2, decode-err 3, write-err 1 | admission drops [4:3 7:2] | admitted backlog 3" +
		" | wire: rx-batch mean 2.5, tx-batch mean 1.0, syscalls rx 6 tx 4 (2.50/query), offload gso off gro on" +
		", truncated 6, coalesced frames 7 (oversized drops 1), deadline-err 4"
	if got := s.Line(4); got != want {
		t.Errorf("Line =\n %q\nwant\n %q", got, want)
	}
	if got := (Stats{QueueFull: 1}).Line(0); got != "queue-full 1, shed 0, decode-err 0, write-err 0" {
		t.Errorf("idle Line = %q", got)
	}
}
