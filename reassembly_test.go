package lightning

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestNICReassemblyMetrics drives the NIC's 256-entry reassembly table past
// capacity and checks the Metrics counters a deployment would watch:
// PendingReassembly tracks in-flight fragmented queries, ReassemblyDrops
// counts FIFO evictions, duplicate fragments are idempotent, and
// interleaved fragments of distinct request IDs both complete.
func TestNICReassemblyMetrics(t *testing.T) {
	q, test := trainedModel(t)
	n, err := New(Config{Lanes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, len(test.Examples[0].X))
	for j, c := range test.Examples[0].X {
		payload[j] = byte(c)
	}
	// Tiny fragment budget: every query needs several fragments.
	maxPayload := nic.FragHeaderLen + 8
	fragment := func(id uint32) []*Message {
		msgs, err := nic.Fragment(id, 1, payload, maxPayload)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) < 3 {
			t.Fatalf("query produced only %d fragments", len(msgs))
		}
		return msgs
	}

	// Open more in-flight reassemblies than the table holds.
	const inflight = 300
	for id := uint32(1); id <= inflight; id++ {
		resp, err := n.HandleMessage(fragment(id)[0])
		if err != nil || resp != nil {
			t.Fatalf("id %d: resp=%v err=%v on first fragment", id, resp, err)
		}
	}
	m := n.Metrics()
	if m.PendingReassembly != 256 {
		t.Errorf("PendingReassembly = %d, want 256", m.PendingReassembly)
	}
	if m.ReassemblyDrops != inflight-256 {
		t.Errorf("ReassemblyDrops = %d, want %d", m.ReassemblyDrops, inflight-256)
	}

	// Complete the newest query, delivering every non-final fragment twice:
	// duplicates must be idempotent (a duplicate of the final fragment
	// would legitimately re-open an entry, as the reassembler cannot know
	// the request already finished).
	var got *Response
	tail := fragment(inflight)[1:]
	for i, frag := range tail {
		reps := 2
		if i == len(tail)-1 {
			reps = 1
		}
		for rep := 0; rep < reps; rep++ {
			resp, err := n.HandleMessage(frag)
			if err != nil {
				t.Fatal(err)
			}
			if resp != nil {
				if got != nil {
					t.Fatal("duplicate fragment completed the query twice")
				}
				got = resp
			}
		}
	}
	if got == nil {
		t.Fatal("fragmented query never completed")
	}
	if n.Served() != 1 {
		t.Errorf("Served = %d, want 1", n.Served())
	}
	if p := n.Metrics().PendingReassembly; p != 255 {
		t.Errorf("PendingReassembly after completion = %d, want 255", p)
	}

	// Interleave two fresh requests fragment by fragment: both complete and
	// answer under their own request IDs.
	ma, mb := fragment(1000), fragment(1001)
	var ra, rb *Response
	for i := range ma {
		if resp, err := n.HandleMessage(ma[i]); err != nil {
			t.Fatal(err)
		} else if resp != nil {
			ra = resp
		}
		if resp, err := n.HandleMessage(mb[i]); err != nil {
			t.Fatal(err)
		} else if resp != nil {
			rb = resp
		}
	}
	if ra == nil || rb == nil {
		t.Fatal("interleaved fragmented queries did not both complete")
	}
	if ra.RequestID != 1000 || rb.RequestID != 1001 {
		t.Errorf("response request IDs = %d, %d", ra.RequestID, rb.RequestID)
	}
	if n.Served() != 3 {
		t.Errorf("Served = %d, want 3", n.Served())
	}
}

// TestHandleMessageHostileTotalIsErrFlagged: a single fragment declaring a
// 4 GiB query used to size the reassembly buffer from the wire — one 24-byte
// datagram, one 4 GiB make. The NIC answers it with an Err-flagged response,
// counts it under its own name, allocates less than one fragment's worth
// doing so, and serves a good 150 KB query right after.
func TestHandleMessageHostileTotalIsErrFlagged(t *testing.T) {
	const width = 150528
	n, err := New(Config{Lanes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(1, "halves", SyntheticHalvesModel(width)); err != nil {
		t.Fatal(err)
	}
	hostile := &Message{Flags: nic.FlagFragment, RequestID: 7, ModelID: 1, Payload: make([]byte, nic.FragHeaderLen+4)}
	binary.BigEndian.PutUint32(hostile.Payload[4:8], 0xffffffff)

	// TotalAlloc is process-wide: take the quietest of a few attempts so a
	// background goroutine's allocation cannot fail the bound.
	const tries = 3
	least := ^uint64(0)
	for try := 0; try < tries; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := n.HandleMessage(hostile)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, nic.ErrQueryTooLarge) || resp == nil || !resp.Err || resp.RequestID != 7 {
			t.Fatalf("hostile total: resp=%+v err=%v, want an Err-flagged response and ErrQueryTooLarge", resp, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= nic.MaxFragPayload {
		t.Errorf("answering the hostile fragment allocated %d bytes, want less than one fragment's %d", least, nic.MaxFragPayload)
	}
	if m := n.Metrics(); m.ReassemblyOversize != tries || m.PendingReassembly != 0 {
		t.Errorf("ReassemblyOversize %d PendingReassembly %d, want %d and 0", m.ReassemblyOversize, m.PendingReassembly, tries)
	}

	query := make([]byte, width)
	for i := width / 2; i < width; i++ {
		query[i] = 200 // the second half is the bright one: class 1
	}
	msgs, err := nic.Fragment(8, 1, query, nic.MaxFragPayload)
	if err != nil {
		t.Fatal(err)
	}
	var good *Response
	for _, m := range msgs {
		if resp, err := n.HandleMessage(m); err != nil {
			t.Fatal(err)
		} else if resp != nil {
			good = resp
		}
	}
	if good == nil || good.Err || good.Class != 1 {
		t.Fatalf("150 KB query after the hostile fragment: %+v, want class 1", good)
	}
}

// turnConn makes two clients' datagrams leave strictly alternately: a Write
// waits for its turn, sends, and hands the turn to the other client.
type turnConn struct {
	net.Conn
	mine, theirs chan struct{}
}

func (c *turnConn) Write(p []byte) (int, error) {
	<-c.mine
	n, err := c.Conn.Write(p)
	c.theirs <- struct{}{}
	return n, err
}

// TestTwoClientsSameRequestIDFragmentedOverUDP: every Client numbers its
// requests from 1, so two of them sending same-size fragmented queries to one
// model share a request ID on their first query. Their trains are made to
// arrive fragment by fragment alternately — the order that, keyed by ID
// alone, assembled one buffer out of both and answered one client on the
// other's bytes while the other timed out. Each client must get the answer to
// its own query.
func TestTwoClientsSameRequestIDFragmentedOverUDP(t *testing.T) {
	const width, model = 4096, 6 // three fragments; a wider dim half would saturate the accumulator into a tie
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(model, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, pc) }()

	turnA, turnB := make(chan struct{}, 1), make(chan struct{}, 1)
	turnA <- struct{}{}
	dial := func(mine, theirs chan struct{}) *Client {
		conn, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		return newClient(&turnConn{Conn: conn, mine: mine, theirs: theirs})
	}
	clients := []*Client{dial(turnA, turnB), dial(turnB, turnA)}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			defer c.Close()
			query := make([]Code, width)
			for j, b := range halvesQuery(width, i == 0) {
				query[j] = Code(b)
			}
			resp, _, err := c.Infer(model, query)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if resp.RequestID != 1 {
				t.Errorf("client %d: request ID %d, want both clients on 1", i, resp.RequestID)
			}
			if int(resp.Class) != i {
				t.Errorf("client %d: class %d, oracle %d: answered on another client's bytes", i, resp.Class, i)
			}
		}(i, c)
	}
	wg.Wait()
	if m := n.Metrics(); m.PendingReassembly != 0 || m.ReassemblyDrops != 0 {
		t.Errorf("pending %d drops %d after two clean trains", m.PendingReassembly, m.ReassemblyDrops)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeUDP returned %v", err)
	}
}

// trainConn is a batch seam that delivers one fragment train in a single
// read, coalesced into GRO slots as the kernel hands a train to the serve
// socket, and reports each datagram written; every later read times out.
type trainConn struct {
	dgrams  [][]byte
	closed  chan struct{}
	written chan []byte
}

func (c *trainConn) ReadBatch(ms []netbatch.Message) (int, error) {
	if len(c.dgrams) == 0 {
		<-c.closed
		return 0, fault.ErrTimeout
	}
	k := 0
	for ; k < len(ms) && len(c.dgrams) > 0; k++ {
		m := &ms[k]
		m.N, m.Seg, m.Addr = 0, len(c.dgrams[0]), clientA
		// Equal segments, the slot's last one possibly shorter.
		for len(c.dgrams) > 0 && len(c.dgrams[0]) <= m.Seg && m.N+len(c.dgrams[0]) <= len(m.Buf) {
			d := c.dgrams[0]
			m.N += copy(m.Buf[m.N:], d)
			c.dgrams = c.dgrams[1:]
			if len(d) < m.Seg {
				break
			}
		}
	}
	if len(c.dgrams) > 0 {
		panic("the train does not fit one read")
	}
	return k, nil
}

func (c *trainConn) WriteBatch(ms []netbatch.Message) (int, error) {
	for i := range ms {
		c.written <- bytes.Clone(ms[i].Bytes())
	}
	return len(ms), nil
}

func (c *trainConn) SetReadDeadline(time.Time) error { return nil }
func (c *trainConn) FastPath() bool                  { return true }

// TestReassemblerReadsClockOncePerBatch: a vision-sized query's 109-fragment
// train that arrives in one read is reassembled with at most one read of
// the reassembler's clock, not one per fragment behind the pending train,
// and is answered.
func TestReassemblerReadsClockOncePerBatch(t *testing.T) {
	const width, model = 150528, 4
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(model, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	n.reassembly.SetClock(func() time.Time { reads.Add(1); return time.Unix(3000, 0) })
	msgs, err := nic.Fragment(8, model, halvesQuery(width, true), nic.MaxFragPayload)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 109 {
		t.Fatalf("the query travels as %d fragments, want 109", len(msgs))
	}
	conn := &trainConn{closed: make(chan struct{}), written: make(chan []byte, 1)}
	for _, m := range msgs {
		d, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		conn.dgrams = append(conn.dgrams, d)
	}
	n.rail = func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn { return conn }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, nil) }()
	var resp nic.Message
	select {
	case d := <-conn.written:
		if err := resp.Decode(d); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reassembled query was not answered within 10 s")
	}
	cancel()
	close(conn.closed)
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if resp.RequestID != 8 || resp.IsError() {
		t.Fatalf("response to request %d, error flag %v; want request 8 answered", resp.RequestID, resp.IsError())
	}
	if got := reads.Load(); got > 1 {
		t.Fatalf("a 109-fragment train in one read read the reassembler's clock %d times, want at most 1", got)
	}
}
