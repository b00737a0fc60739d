package nic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Query fragmentation. Table 6's vision queries are 150 KB — larger than a
// UDP datagram and far larger than one Ethernet frame — so the wire protocol
// carries large inference inputs as fragments that the NIC's packet
// assembler reassembles before the datapath runs (§4's packet parser reads
// "the payload as the user data" across however many packets carry it).
//
// On the wire, a fragmented query's payload begins with a fragment header:
//
//	offset size field
//	0      4    byte offset of this fragment within the query
//	4      4    total query length
//	8      n    fragment bytes
//
// A decoded fragment keeps the header in its payload. A fragment that
// Fragment built holds it in the message's Frag field instead, so its
// payload is the fragment bytes alone, a view of the query; the encoders
// write the header ahead of the payload, and the frame is the same.
const (
	// FragHeaderLen is the per-fragment header size.
	FragHeaderLen = 8
	// FlagFragment marks a message that carries one fragment of a larger
	// query.
	FlagFragment = 1 << 3
	// MaxFragPayload bounds fragment size to fit a standard 1500-byte MTU
	// under Ethernet/IPv4/UDP/Lightning headers.
	MaxFragPayload = 1400
)

// DefaultReassemblyTTL bounds how long a partial query may sit in the
// reassembly table waiting for its missing fragments. The timer starts at
// the first fragment (as IP reassembly's does): a query whose fragments were
// lost in flight is evicted rather than pinning a table slot forever.
const DefaultReassemblyTTL = 5 * time.Second

// A fragment's total-length field is wire-supplied and sizes the reassembly
// buffer, so it is bounded before anything is allocated: one query may
// declare at most MaxQueryBytes — Table 6's 150 KB vision queries and a
// LeNet-300-100-sized wire install fit several times over — and all
// in-flight reassemblies together hold at most MaxPendingBytes, the oldest
// giving way first.
const (
	MaxQueryBytes   = 1 << 20
	MaxPendingBytes = 16 * MaxQueryBytes
)

// ErrQueryTooLarge rejects a query longer than MaxQueryBytes at both ends of
// the protocol: Fragment refuses to split one, and the Reassembler refuses a
// fragment that declares one.
var ErrQueryTooLarge = errors.New("nic: fragmented query exceeds MaxQueryBytes")

// Fragment splits a large query into fragment messages sharing the request
// ID. Queries that already fit return a single unfragmented message.
//
// The messages alias query: each fragment's Payload is a view of its bytes,
// its header carried in Frag, and an unfragmented query's Payload is query
// itself. The caller keeps query unchanged until it has encoded every
// message it sends.
func Fragment(requestID uint32, modelID uint16, query []byte, maxPayload int) ([]*Message, error) {
	return FragmentFlags(requestID, modelID, 0, query, maxPayload)
}

// FragmentFlags is Fragment with caller flags preserved: every fragment
// carries flags|FlagFragment, and an unfragmented query keeps flags as-is.
// Control messages (FlagControl) use this so a multi-fragment model install
// is still recognizable as control traffic on its completing fragment. The
// messages alias query as Fragment's do.
func FragmentFlags(requestID uint32, modelID uint16, flags uint8, query []byte, maxPayload int) ([]*Message, error) {
	if maxPayload <= 0 {
		maxPayload = MaxFragPayload
	}
	if len(query) <= maxPayload {
		// The message and the pointer to it share one allocation.
		one := &struct {
			ptr [1]*Message
			msg Message
		}{msg: Message{Flags: flags, RequestID: requestID, ModelID: modelID, Payload: query}}
		one.ptr[0] = &one.msg
		return one.ptr[:], nil
	}
	if len(query) > MaxQueryBytes {
		// The far end's reassembler would refuse it; fail where the
		// caller can see why.
		return nil, fmt.Errorf("%w: %d bytes", ErrQueryTooLarge, len(query))
	}
	chunk := maxPayload - FragHeaderLen
	if chunk <= 0 {
		return nil, fmt.Errorf("nic: max payload %d leaves no room for fragment data", maxPayload)
	}
	count := (len(query) + chunk - 1) / chunk
	if count > 0xffff {
		return nil, fmt.Errorf("nic: query of %d bytes needs %d fragments (max 65535)", len(query), count)
	}
	// One slab of messages for the whole train (a 150 KB query is 109
	// fragments). Each payload is a view of query whose capacity ends where
	// its bytes do, so an append to one cannot run into the next.
	msgs := make([]*Message, count)
	slab := make([]Message, count)
	for i := range slab {
		lo := i * chunk
		hi := min(lo+chunk, len(query))
		slab[i] = Message{
			Flags:     flags | FlagFragment,
			RequestID: requestID,
			ModelID:   modelID,
			Frag:      FragHeader{Offset: uint32(lo), Total: uint32(len(query))},
			Payload:   query[lo:hi:hi],
		}
		msgs[i] = &slab[i]
	}
	return msgs, nil
}

// span is one contiguous byte range [lo, hi) of a query already received.
type span struct{ lo, hi int }

// partialQuery tracks one in-flight reassembly.
type partialQuery struct {
	modelID uint16
	total   int
	// spans holds the merged byte-coverage intervals, sorted and disjoint.
	// Coverage is tracked by interval merge, not by summing fragment
	// lengths: overlapping retransmissions must not double-count and
	// release a query with zero-filled holes.
	spans []span
	// buf holds the train's bytes; it is nil while the entry's buffer is
	// out with its released query.
	buf []byte
}

// cover merges [lo, hi) into the coverage intervals, in place: the spans it
// touches or overlaps collapse into one, and only a range that touches none
// makes the slice longer. A train arriving in order extends the one span it
// has, whatever its length.
func (pq *partialQuery) cover(lo, hi int) {
	s := pq.spans
	i := 0
	for i < len(s) && s[i].hi < lo {
		i++
	}
	j := i
	for ; j < len(s) && s[j].lo <= hi; j++ {
		lo, hi = min(lo, s[j].lo), max(hi, s[j].hi)
	}
	if i == j {
		s = append(s, span{})
		copy(s[i+1:], s[i:])
	} else {
		s = append(s[:i+1], s[j:]...)
	}
	s[i] = span{lo, hi}
	pq.spans = s
}

// complete reports whether every byte of the query has arrived.
func (pq *partialQuery) complete() bool {
	return len(pq.spans) == 1 && pq.spans[0].lo == 0 && pq.spans[0].hi == pq.total
}

// trainKey names a fragment train by its sender and the request ID the sender
// chose: every client numbers its requests from 1, so the ID alone does not
// tell two clients' trains apart.
type trainKey struct {
	from netip.AddrPort
	id   uint32
}

// Source is a datagram's sender as OfferBatch keys it: the UDP address and
// port, or the zero source for an address of any other kind (a test's
// in-memory conn), whose senders then share one key space as they always did.
func Source(addr net.Addr) netip.AddrPort {
	if ua, ok := addr.(*net.UDPAddr); ok {
		return ua.AddrPort()
	}
	return netip.AddrPort{}
}

// Reassembler is the packet assembler's reassembly buffer: it collects
// fragments by sender and request ID and releases the complete query. Entries
// are bounded three ways: a query may declare at most MaxQueryBytes; when the
// table is full, or its buffers would together exceed MaxPendingBytes, the
// oldest in-flight query is discarded (a hardware reassembly table's
// behaviour under pressure); and every entry carries a deadline — TTL past
// its first fragment — after which it is expired, so partial queries from
// lost fragments cannot pin slots forever. All methods are safe for
// concurrent use: fragments of distinct requests arrive interleaved across
// worker goroutines.
//
// Buffers are recycled. A released query's buffer is the caller's until it
// hands it back with Release, and a buffer handed back, or one whose train
// was discarded, waits in a sync.Pool for the next train whose total fits
// it: a steady stream of same-sized queries reuses one buffer and allocates
// nothing. The pool is the GC's to empty, so an idle reassembler pins no
// buffer. A caller that never releases its buffers leaves each to the GC.
// What a pending entry's buffer can hold, not just its total, is charged to
// MaxPendingBytes.
type Reassembler struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	now     func() time.Time
	pending map[trainKey]*partialQuery
	// order lists the pending entries oldest-first, each with its
	// deadline. Deadlines are fixed at entry creation with a constant TTL,
	// so creation order is deadline order and expiry sweeps only the head.
	order []deadline
	// bytes is the sum of the pending entries' buffer capacities.
	bytes int
	// idle holds buffers no pending entry or caller owns, each in the entry
	// that last held it; spare holds entries without a buffer, whose
	// buffers went out with their queries, for Release to hand them back
	// in.
	idle  sync.Pool
	spare []*partialQuery

	// drops counts discarded in-flight queries (table or byte-budget
	// pressure, inconsistent fragments); expired counts deadline evictions;
	// oversize counts fragments refused for declaring more than
	// MaxQueryBytes.
	drops    uint64
	expired  uint64
	oversize uint64
}

// NewReassembler builds a table bounded to capacity in-flight queries with
// the default TTL.
func NewReassembler(capacity int) *Reassembler {
	return NewReassemblerTTL(capacity, DefaultReassemblyTTL)
}

// NewReassemblerTTL builds a table bounded to capacity in-flight queries
// whose entries expire ttl after their first fragment.
func NewReassemblerTTL(capacity int, ttl time.Duration) *Reassembler {
	if capacity <= 0 {
		capacity = 64
	}
	if ttl <= 0 {
		ttl = DefaultReassemblyTTL
	}
	return &Reassembler{
		cap:     capacity,
		ttl:     ttl,
		now:     time.Now,
		pending: make(map[trainKey]*partialQuery),
	}
}

// SetClock replaces the reassembler's time source (tests drive expiry with a
// logical clock instead of waiting out real TTLs).
//
//lint:allow reachability TestReassemblerTTLExpiry and the other TTL tests expire entries on a logical clock
func (r *Reassembler) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// Pending returns the in-flight query count.
func (r *Reassembler) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Drops returns the discarded in-flight query count (capacity pressure and
// inconsistent fragments; TTL evictions count separately in Expired).
func (r *Reassembler) Drops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}

// Expired returns the count of in-flight queries evicted by deadline.
func (r *Reassembler) Expired() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expired
}

// Oversize returns the count of fragments refused because they declared a
// query longer than MaxQueryBytes.
func (r *Reassembler) Oversize() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oversize
}

// GC evicts every entry past its deadline and returns how many it removed.
// Offer runs the same sweep; GC exists so an idle serve loop still expires
// stale entries when no fragments arrive.
func (r *Reassembler) GC() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var clk BatchClock
	return r.gc(&clk)
}

// deadline is a pending entry's key beside the time it expires, fixed at
// creation: the reassembly timer starts with the first fragment.
type deadline struct {
	key trainKey
	at  time.Time
}

// BatchClock is one reading of a reassembler's clock shared by the offers of
// one rx batch (OfferBatch): the first offer that needs the time reads the
// clock, and the rest of the batch reuses that reading. The zero value holds
// no reading; a reader resets its clock to zero after each read returns.
type BatchClock struct {
	now  time.Time
	read bool
}

// time returns clk's reading, reading the clock into it first if it holds
// none. Caller holds r.mu.
func (r *Reassembler) time(clk *BatchClock) time.Time {
	if !clk.read {
		clk.now, clk.read = r.now(), true
	}
	return clk.now
}

// gc sweeps expired entries from the head of the creation order; callers
// hold r.mu. An empty table has nothing to expire, so it does not read the
// clock: every unfragmented query passes through here.
func (r *Reassembler) gc(clk *BatchClock) int {
	if len(r.order) == 0 {
		return 0
	}
	now := r.time(clk)
	n := 0
	for len(r.order) > 0 && !r.order[0].at.After(now) {
		r.remove(r.order[0].key)
		r.expired++
		n++
	}
	return n
}

// Offer is OfferBatch for a caller with one sender behind it, or none it
// can name, and no batch: every fragment is taken as the zero source's, and
// each offer reads the clock it needs.
func (r *Reassembler) Offer(m *Message) (query []byte, modelID uint16, done bool, err error) {
	var clk BatchClock
	return r.OfferBatch(netip.AddrPort{}, m, &clk)
}

// OfferBatch consumes one message that arrived from src, one of an rx batch
// whose offers share clk: a train's fragments that arrive in one batch read
// the clock once between them. Unfragmented queries pass straight through
// as (query, true). Fragments accumulate per sender and request ID — two
// senders that both number a request 1 never share a buffer — and the
// fragment that completes byte coverage of a request releases the assembled
// query, in a buffer that is the caller's until it hands it back with
// Release. Inconsistent fragments drop the whole request.
func (r *Reassembler) OfferBatch(src netip.AddrPort, m *Message, clk *BatchClock) (query []byte, modelID uint16, done bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gc(clk)
	if m.Flags&FlagFragment == 0 {
		return m.Payload, m.ModelID, true, nil
	}
	lo, total, body, ok := fragmentOf(m)
	if !ok {
		return nil, 0, false, errFragmentHeader
	}
	if total <= 0 || len(body) == 0 {
		return nil, 0, false, errEmptyFragment(m.RequestID)
	}
	if total > MaxQueryBytes {
		r.oversize++
		return nil, 0, false, errDeclaresTooMuch(m.RequestID, total)
	}

	key := trainKey{from: src, id: m.RequestID}
	pq := r.pending[key]
	if pq == nil {
		pq = r.open(key, m.ModelID, total, r.time(clk))
	}
	if pq.total != total || pq.modelID != m.ModelID {
		r.remove(key)
		r.drops++
		return nil, 0, false, errInconsistent(m.RequestID)
	}
	hi := lo + len(body)
	if lo < 0 || hi > total {
		r.remove(key)
		r.drops++
		return nil, 0, false, errOverflow(lo, hi, total)
	}
	copy(pq.buf[lo:hi], body)
	pq.cover(lo, hi)
	if !pq.complete() {
		return nil, 0, false, nil
	}
	return r.finish(key), pq.modelID, true, nil
}

// fragmentOf reads a fragment's header and body: from m.Frag when the
// sender's message carries it (Fragment's trains), from the first
// FragHeaderLen bytes of the payload when the message was decoded off the
// wire. ok is false for a payload too short for the header.
func fragmentOf(m *Message) (lo, total int, body []byte, ok bool) {
	if m.Frag.Total != 0 {
		return int(m.Frag.Offset), int(m.Frag.Total), m.Payload, true
	}
	if len(m.Payload) < FragHeaderLen {
		return 0, 0, nil, false
	}
	lo = int(binary.BigEndian.Uint32(m.Payload[0:4]))
	total = int(binary.BigEndian.Uint32(m.Payload[4:8]))
	return lo, total, m.Payload[FragHeaderLen:], true
}

// finish takes a complete train out of the table and returns its buffer,
// which is the caller's from here on; the entry waits in spare for the
// buffer to come back. Caller holds r.mu.
func (r *Reassembler) finish(key trainKey) []byte {
	pq := r.unlink(key)
	query := pq.buf
	pq.buf = nil
	r.spare = append(r.spare, pq)
	return query
}

// open starts a train of total bytes under key at time now, in a recycled
// buffer when an idle one fits, and makes room for it first: the oldest
// entries give way while the table is full or the buffer would overrun
// MaxPendingBytes. Caller holds r.mu.
func (r *Reassembler) open(key trainKey, modelID uint16, total int, now time.Time) *partialQuery {
	pq := r.entry(total)
	for len(r.pending) >= r.cap || r.bytes+cap(pq.buf) > MaxPendingBytes {
		r.remove(r.order[0].key)
		r.drops++
	}
	r.bytes += cap(pq.buf)
	pq.modelID, pq.total = modelID, total
	pq.spans = pq.spans[:0]
	r.pending[key] = pq
	r.order = append(r.order, deadline{key, now.Add(r.ttl)})
	return pq
}

// entry returns an entry with a buffer of total bytes: an idle one whose
// buffer holds total and is less than twice as long — so a reused buffer
// is charged at most double its train's bytes — or a fresh one. An idle
// buffer that does not fit goes back to the pool. Caller holds r.mu.
func (r *Reassembler) entry(total int) *partialQuery {
	if pq, _ := r.idle.Get().(*partialQuery); pq != nil {
		if c := cap(pq.buf); total <= c && c < 2*total {
			pq.buf = pq.buf[:total]
			return pq
		}
		r.idle.Put(pq)
	}
	pq := r.spareEntry()
	pq.buf = make([]byte, total)
	return pq
}

// spareEntry pops an entry without a buffer, or makes one. Caller holds
// r.mu.
func (r *Reassembler) spareEntry() *partialQuery {
	k := len(r.spare)
	if k == 0 {
		return new(partialQuery)
	}
	pq := r.spare[k-1]
	r.spare[k-1] = nil // the entry will hold a buffer: the list must not pin it
	r.spare = r.spare[:k-1]
	return pq
}

// Release hands back the buffer of a query OfferBatch released, once the
// caller is done reading it: the next train that fits reuses it, or the GC
// takes it while it sits idle. It must be called at most once a query, and
// only with a buffer of a fragmented query — never with an unfragmented
// query, whose bytes are the message's own.
func (r *Reassembler) Release(query []byte) {
	if cap(query) == 0 {
		return
	}
	r.mu.Lock()
	pq := r.spareEntry()
	r.mu.Unlock()
	pq.buf = query[:0]
	r.idle.Put(pq)
}

// errFragmentHeader refuses a fragment too short for its header.
var errFragmentHeader = fmt.Errorf("%w: fragment header", ErrTruncated)

// The refusals below are built off OfferBatch's hot path.

func errEmptyFragment(id uint32) error {
	return fmt.Errorf("nic: empty fragment for request %d", id)
}

func errDeclaresTooMuch(id uint32, total int) error {
	return fmt.Errorf("%w: request %d declares %d bytes", ErrQueryTooLarge, id, total)
}

func errInconsistent(id uint32) error {
	return fmt.Errorf("nic: inconsistent fragment for request %d", id)
}

func errOverflow(lo, hi, total int) error {
	return fmt.Errorf("nic: fragment [%d,%d) overflows %d-byte query", lo, hi, total)
}

// remove discards an in-flight entry without counting a drop; its buffer
// goes idle.
func (r *Reassembler) remove(key trainKey) {
	if pq := r.unlink(key); pq != nil {
		r.idle.Put(pq)
	}
}

// unlink takes an entry out of the table and returns it (nil if key has
// none), its buffer no longer charged.
func (r *Reassembler) unlink(key trainKey) *partialQuery {
	pq, ok := r.pending[key]
	if !ok {
		return nil
	}
	r.bytes -= cap(pq.buf)
	delete(r.pending, key)
	for i, v := range r.order {
		if v.key == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return pq
}
