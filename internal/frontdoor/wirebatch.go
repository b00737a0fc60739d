package frontdoor

import (
	"math/bits"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// This file is the tx half of the batched wire path (DESIGN.md §16): a
// bounded batch-size histogram for observability, and the response batcher
// that packs a flush's responses into one datagram per client and writes
// them in one WriteBatch — one sendmmsg on the Linux fast path.

// sizeHist is a bounded, atomic batch-size histogram: power-of-two buckets
// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+. Fixed storage, lock-free
// updates — safe to bump from every reader/worker at wire rate.
type sizeHist struct {
	buckets [8]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// observe records one batch of n messages.
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

// txBatcher packs encoded response frames into datagrams and flushes them
// through one WriteBatch call (one sendmmsg on the Linux fast path). A
// response joins the datagram its destination already has open in the
// current flush while that stays within maxPacked bytes, so a flush sends
// each client one datagram per maxPacked bytes of responses; every
// receiver walks a datagram's frames by their length prefixes, so any
// client that speaks the wire protocol stays compatible. No response waits
// for company: only responses queued for the same flush share a datagram.
// Buffers recycle through an internal free list, so steady-state queueing
// costs no allocation. The batcher is mutex-guarded: the inline reader uses
// it uncontended, the worker pool shares it.
type txBatcher struct {
	d  *Door
	bc netbatch.BatchConn

	mu sync.Mutex
	// pending holds the datagrams awaiting flush, each destination's
	// together in queue order and destinations in the order of their first
	// response; their Bufs are owned by the batcher and recycle through
	// free. frames[i] counts the responses packed in pending[i].
	pending []netbatch.Message
	frames  []int
	free    [][]byte
}

// maxPacked bounds a packed response datagram: the size of one fragment
// datagram, which every receiver's read slot already holds and a 1500-byte
// MTU carries. A response longer than that on its own leaves alone.
const maxPacked = nic.WireHeaderLen + nic.MaxFragPayload

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
// queue appends into retained storage (pending and the recycled buffers):
// growth amortizes to zero in steady state.
func (t *txBatcher) queue(resp *nic.Response, addr net.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queueLocked(resp, addr)
}

// send queues resps[i] for addrs[i] and, with flush, writes everything
// pending, in one hold of the lock: no other flush splits a worker's batch.
func (t *txBatcher) send(resps []nic.Response, addrs []net.Addr, flush bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range resps {
		t.queueLocked(&resps[i], addrs[i])
	}
	if flush {
		t.flushLocked()
	}
}

// queueLocked is queue with t.mu held. The response is appended to addr's
// last datagram when it fits under maxPacked; otherwise it opens a new
// datagram right after that one, which keeps pending grouped by
// destination — the run the segmentation offload sends as one train. A
// failed encode leaves every datagram as it was.
func (t *txBatcher) queueLocked(resp *nic.Response, addr net.Addr) {
	i := len(t.pending) - 1
	for i >= 0 && t.pending[i].Addr != addr {
		i--
	}
	if i >= 0 && t.pending[i].N+nic.ResponseFrameLen(resp) <= maxPacked {
		m := &t.pending[i]
		buf, err := nic.AppendResponseFrame(m.Buf, resp)
		if err != nil {
			t.d.writeErrors.Add(1)
			return
		}
		m.Buf, m.N = buf, len(buf)
		t.frames[i]++
		return
	}
	buf, err := nic.AppendResponseFrame(t.getBuf(), resp)
	if err != nil {
		t.d.writeErrors.Add(1)
		t.putBuf(buf)
		return
	}
	at := len(t.pending)
	if i >= 0 {
		at = i + 1
	}
	t.pending = slices.Insert(t.pending, at, netbatch.Message{Buf: buf, N: len(buf), Addr: addr})
	t.frames = slices.Insert(t.frames, at, 1)
}

// putBuf recycles one datagram buffer (caller holds mu).
func (t *txBatcher) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	t.free = append(t.free, b)
}

// flush writes every pending datagram in one WriteBatch (looping past
// per-datagram failures, each counted as one write error per response it
// carried) and recycles the buffers.
func (t *txBatcher) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
}

// flushLocked is flush with t.mu held.
func (t *txBatcher) flushLocked() {
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
			// The failed datagram is ms[0]: count its responses, skip it,
			// keep going — one unreachable client must not drop the rest
			// of the batch.
			t.d.writeErrors.Add(uint64(t.frames[len(t.pending)-len(ms)]))
			ms = ms[1:]
			continue
		}
	}
	for i := range t.pending {
		t.putBuf(t.pending[i].Buf)
		t.pending[i] = netbatch.Message{}
	}
	t.pending = t.pending[:0]
	t.frames = t.frames[:0]
}
