package frontdoor

import (
	"math/bits"
	"net"
	"sync"
	"sync/atomic"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// This file is the tx half of the batched wire path (DESIGN.md §16): a
// bounded batch-size histogram for observability, and the response batcher
// that turns many single-datagram sends into a few WriteBatch flushes — one
// sendmmsg on the Linux fast path.

// sizeHist is a bounded, atomic batch-size histogram: power-of-two buckets
// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+. Fixed storage, lock-free
// updates — safe to bump from every reader/worker at wire rate.
type sizeHist struct {
	buckets [8]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// observe records one batch of n messages.
//
//lint:hotpath
func (h *sizeHist) observe(n int) {
	if n <= 0 {
		return
	}
	i := bits.Len(uint(n - 1))
	if i > 7 {
		i = 7
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(n))
}

// snapshot copies the histogram for a Stats scrape.
func (h *sizeHist) snapshot() SizeHist {
	var s SizeHist
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// SizeHist is a batch-size distribution snapshot (Stats).
type SizeHist struct {
	// Buckets counts batches of size 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64,
	// and 65+, in that order.
	Buckets [8]uint64
	// Count is the number of batches observed; Sum the total messages
	// across them.
	Count, Sum uint64
}

// Mean returns the average batch size (0 before any observation).
func (h SizeHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// txBatcher collects encoded response datagrams, one response each, and
// flushes them through one WriteBatch call (one sendmmsg on the Linux fast
// path), so any client that speaks the wire protocol stays compatible.
// Buffers recycle through an internal free list, so steady-state queueing
// costs no allocation. The batcher is mutex-guarded: the inline reader uses
// it uncontended, the worker pool shares it.
type txBatcher struct {
	d  *Door
	bc netbatch.BatchConn

	mu sync.Mutex
	// pending holds the datagrams awaiting flush; their Bufs are owned by
	// the batcher and recycle through free.
	pending []netbatch.Message
	free    [][]byte
}

// getBuf pops a recycled datagram buffer (cold path allocates).
func (t *txBatcher) getBuf() []byte {
	if len(t.free) == 0 {
		return make([]byte, 0, 2048)
	}
	b := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	return b[:0]
}

// queue appends one response bound for addr. Encode failures are counted
// as write errors (the response is lost either way). Like AppendEncode,
// queue appends into retained storage (pending and the recycled buffers),
// so it carries no hotpath marker — growth amortizes to zero in steady
// state.
func (t *txBatcher) queue(resp *nic.Response, addr net.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := nic.AppendResponseFrame(t.getBuf(), resp)
	if err != nil {
		t.d.writeErrors.Add(1)
		t.putBuf(buf)
		return
	}
	t.pending = append(t.pending, netbatch.Message{Buf: buf, N: len(buf), Addr: addr})
}

// putBuf recycles one datagram buffer (caller holds mu).
func (t *txBatcher) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	t.free = append(t.free, b)
}

// flush writes every pending datagram in one WriteBatch (looping past
// per-message failures, which are counted like the single-message path
// counted them) and recycles the buffers.
//
//lint:hotpath
func (t *txBatcher) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.pending) == 0 {
		return
	}
	t.d.txHist.observe(len(t.pending))
	ms := t.pending
	for len(ms) > 0 {
		sent, err := t.bc.WriteBatch(ms)
		ms = ms[sent:]
		if err != nil {
			if len(ms) == 0 {
				break
			}
			// The failed message is ms[0]: count it, skip it, keep going —
			// one unreachable client must not drop the rest of the batch.
			t.d.writeErrors.Add(1)
			ms = ms[1:]
			continue
		}
	}
	for i := range t.pending {
		t.putBuf(t.pending[i].Buf)
		t.pending[i] = netbatch.Message{}
	}
	t.pending = t.pending[:0]
}
