package lightning

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// answer is one response as chanConn saw it leave: its request and class,
// or class -1 for an Err-flagged response.
type answer struct {
	id    uint32
	class int
}

// chanConn is a batch seam fed through channels, for measuring the serve
// path alone: ReadBatch blocks until the test sends a batch of datagrams
// (after close it reads as a timeout, so the loop sees its cancellation),
// and WriteBatch walks each datagram's response frames, as every receiver
// does, and reports each response on answers. Neither allocates.
type chanConn struct {
	in      chan [][]byte
	answers chan answer
	closed  chan struct{}
	from    net.Addr
}

func newChanConn() *chanConn {
	return &chanConn{
		in:      make(chan [][]byte),
		answers: make(chan answer, 64),
		closed:  make(chan struct{}),
		from:    &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7000},
	}
}

func (c *chanConn) ReadBatch(ms []netbatch.Message) (int, error) {
	select {
	case batch := <-c.in:
		for i, d := range batch {
			ms[i].N = copy(ms[i].Buf, d)
			ms[i].Addr, ms[i].Seg = c.from, 0
		}
		return len(batch), nil
	case <-c.closed:
		return 0, fault.ErrTimeout
	}
}

func (c *chanConn) WriteBatch(ms []netbatch.Message) (int, error) {
	for i := range ms {
		for b := ms[i].Bytes(); len(b) > 0; {
			var m nic.Message
			k, err := m.DecodeNext(b)
			if err != nil {
				return i, err
			}
			a := answer{id: m.RequestID, class: int(binary.BigEndian.Uint16(m.Payload[0:2]))}
			if m.IsError() {
				a.class = -1
			}
			c.answers <- a
			b = b[k:]
		}
	}
	return len(ms), nil
}

func (c *chanConn) SetReadDeadline(time.Time) error { return nil }
func (c *chanConn) FastPath() bool                  { return true }

// TestServeSteadyStateZeroAllocsPerQuery: from the rx batch to the tx flush
// the serve path allocates nothing per query once its storage is warm — the
// reader's inline path for an unfragmented query, for a fragment train
// (reassembled into a recycled buffer) and for four queries coalesced into
// one datagram (one inline group, one matrix pass), and the worker pool
// with batching on, where admission copies the query into a recycled slot
// and a batch of two runs as one matrix pass. Every answer must still be
// its query's oracle.
func TestServeSteadyStateZeroAllocsPerQuery(t *testing.T) {
	const width, model = 1024, 5
	for _, c := range []struct {
		name       string
		batch      BatchConfig
		workers    int
		maxPayload int
		queries    int  // per round, served together
		coalesce   bool // a round's frames share one datagram
	}{
		{"unfragmented", BatchConfig{}, 0, width, 1, false},
		{"train", BatchConfig{}, 0, 300, 1, false},
		{"coalesced", BatchConfig{}, 0, width, 4, true},
		{"workers-batched", BatchConfig{MaxBatch: 2, MaxDelay: time.Hour}, 2, width, 2, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 3, Batch: c.batch})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.RegisterModel(model, "halves", halvesModel(width)); err != nil {
				t.Fatal(err)
			}
			conn := newChanConn()
			n.rail = func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn { return conn }
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				if c.workers > 0 {
					done <- n.ServeUDPWorkers(ctx, nil, c.workers)
				} else {
					done <- n.ServeUDP(ctx, nil)
				}
			}()
			defer func() {
				cancel()
				close(conn.closed)
				if err := <-done; err != nil {
					t.Errorf("serve returned %v", err)
				}
			}()

			// Two rounds' datagrams, alternating classes: request id's
			// oracle is id%2.
			var rounds [2][][]byte
			for r := range rounds {
				for k := 0; k < c.queries; k++ {
					id := uint32(2*k + 1 + r)
					msgs, err := nic.Fragment(id, model, halvesQuery(width, id%2 == 0), c.maxPayload)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range msgs {
						d, err := m.AppendEncode(nil)
						if err != nil {
							t.Fatal(err)
						}
						rounds[r] = append(rounds[r], d)
					}
				}
				if c.coalesce {
					rounds[r] = [][]byte{bytes.Join(rounds[r], nil)}
				}
			}
			if c.name == "train" && len(rounds[0]) < 3 {
				t.Fatalf("a train of %d datagrams", len(rounds[0]))
			}
			k, wrong := 0, 0
			round := func() {
				conn.in <- rounds[k%2]
				k++
				for i := 0; i < c.queries; i++ {
					if a := <-conn.answers; a.class != int(a.id%2) {
						wrong++
					}
				}
			}
			for i := 0; i < 16; i++ {
				round() // warm-up: every pool, free list and scratch grows
			}
			if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
				t.Errorf("%v allocations per round of %d queries, want 0", allocs, c.queries)
			}
			if wrong != 0 {
				t.Errorf("%d answers differ from their oracle", wrong)
			}
		})
	}
}
