package lightning

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

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
