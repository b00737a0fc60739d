package nic

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFragmentSmallQueryPassesThrough(t *testing.T) {
	msgs, err := Fragment(1, 2, []byte{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Flags&FlagFragment != 0 {
		t.Errorf("small query fragmented: %d msgs flags=%x", len(msgs), msgs[0].Flags)
	}
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	// A Table 6 vision query: 150 KB.
	rng := rand.New(rand.NewPCG(1, 1))
	query := make([]byte, 150*1024)
	for i := range query {
		query[i] = byte(rng.IntN(256))
	}
	msgs, err := Fragment(77, 5, query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) < 100 {
		t.Fatalf("150 KB query produced only %d fragments", len(msgs))
	}
	r := NewReassembler(8)
	var got []byte
	var modelID uint16
	for i, m := range msgs {
		q, id, done, err := r.Offer(m)
		if err != nil {
			t.Fatal(err)
		}
		if done != (i == len(msgs)-1) {
			t.Fatalf("done=%v at fragment %d/%d", done, i, len(msgs))
		}
		if done {
			got, modelID = q, id
		}
	}
	if !bytes.Equal(got, query) {
		t.Fatal("reassembled query differs")
	}
	if modelID != 5 {
		t.Errorf("model id = %d", modelID)
	}
	if r.Pending() != 0 {
		t.Errorf("pending = %d after completion", r.Pending())
	}
}

func TestReassembleOutOfOrderAndDuplicates(t *testing.T) {
	query := make([]byte, 5000)
	for i := range query {
		query[i] = byte(i)
	}
	msgs, _ := Fragment(9, 1, query, 512)
	// Shuffle and duplicate every fragment.
	rng := rand.New(rand.NewPCG(4, 4))
	order := rng.Perm(len(msgs))
	r := NewReassembler(4)
	var got []byte
	for _, i := range order {
		for rep := 0; rep < 2; rep++ { // duplicate delivery
			q, _, done, err := r.Offer(msgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if done && got == nil {
				got = q
			}
		}
	}
	if !bytes.Equal(got, query) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassemblerInterleavedRequests(t *testing.T) {
	qa := bytes.Repeat([]byte{0xaa}, 3000)
	qb := bytes.Repeat([]byte{0xbb}, 3000)
	ma, _ := Fragment(1, 1, qa, 512)
	mb, _ := Fragment(2, 1, qb, 512)
	r := NewReassembler(4)
	var gotA, gotB []byte
	for i := range ma {
		if q, _, done, _ := r.Offer(ma[i]); done {
			gotA = q
		}
		if q, _, done, _ := r.Offer(mb[i]); done {
			gotB = q
		}
	}
	if !bytes.Equal(gotA, qa) || !bytes.Equal(gotB, qb) {
		t.Fatal("interleaved reassembly failed")
	}
}

func TestReassemblerTablePressure(t *testing.T) {
	r := NewReassembler(2)
	// Three interleaved incomplete queries: the oldest is evicted.
	for id := uint32(1); id <= 3; id++ {
		msgs, _ := Fragment(id, 1, make([]byte, 3000), 512)
		r.Offer(msgs[0])
	}
	if r.Pending() != 2 {
		t.Errorf("pending = %d, want 2", r.Pending())
	}
	if r.Drops() != 1 {
		t.Errorf("drops = %d, want 1", r.Drops())
	}
}

// TestReassemblerManyInFlight drives more concurrent fragmented queries
// than the table holds (the NIC uses a 256-entry table): the oldest entries
// are evicted FIFO, every survivor still completes, and the evicted ones
// never do.
func TestReassemblerManyInFlight(t *testing.T) {
	const (
		capacity = 256
		inflight = 300
	)
	r := NewReassembler(capacity)
	queries := make(map[uint32][]byte, inflight)
	frags := make(map[uint32][]*Message, inflight)
	for id := uint32(1); id <= inflight; id++ {
		q := bytes.Repeat([]byte{byte(id)}, 2000)
		msgs, err := Fragment(id, 1, q, 512)
		if err != nil {
			t.Fatal(err)
		}
		queries[id], frags[id] = q, msgs
		// First fragment only: the query stays in flight.
		if _, _, done, err := r.Offer(msgs[0]); err != nil || done {
			t.Fatalf("id %d: done=%v err=%v on first fragment", id, done, err)
		}
	}
	if r.Pending() != capacity {
		t.Errorf("pending = %d, want %d", r.Pending(), capacity)
	}
	if want := uint64(inflight - capacity); r.Drops() != want {
		t.Errorf("drops = %d, want %d", r.Drops(), want)
	}
	// The oldest (inflight-capacity) queries were evicted; the surviving
	// 256 all still complete. Drain the survivors first so their entries
	// free up before the evicted tails re-open entries of their own.
	finish := func(id uint32) []byte {
		var got []byte
		for _, m := range frags[id][1:] {
			q, _, done, err := r.Offer(m)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				got = q
			}
		}
		return got
	}
	for id := uint32(inflight - capacity + 1); id <= inflight; id++ {
		if !bytes.Equal(finish(id), queries[id]) {
			t.Fatalf("surviving id %d did not reassemble", id)
		}
	}
	for id := uint32(1); id <= inflight-capacity; id++ {
		// An evicted query's tail fragments re-open an entry that can never
		// see the first chunk again; it must not complete.
		if finish(id) != nil {
			t.Fatalf("evicted id %d completed", id)
		}
	}
}

func TestReassemblerRejectsMalformed(t *testing.T) {
	r := NewReassembler(4)
	// Truncated fragment header.
	if _, _, _, err := r.Offer(&Message{Flags: FlagFragment, Payload: []byte{1}}); err == nil {
		t.Error("short fragment accepted")
	}
	// A zero-byte train is empty: refused before it opens a train.
	if _, _, _, err := r.Offer(frag(4, 2, 0, 0, []byte{1})); err == nil || !strings.Contains(err.Error(), "empty fragment") {
		t.Errorf("zero-total fragment: err %v, want the empty-fragment error", err)
	}
	if r.Drops() != 0 {
		t.Errorf("refusals before a train opens dropped %d trains", r.Drops())
	}
	// Offset beyond the declared total.
	bad := &Message{Flags: FlagFragment, RequestID: 5, Payload: make([]byte, FragHeaderLen+4)}
	bad.Payload[3] = 200 // offset 200
	bad.Payload[7] = 8   // total 8
	if _, _, _, err := r.Offer(bad); err == nil {
		t.Error("out-of-range offset accepted")
	}
	// A fragment ending one byte past its train's total overflows it, and
	// nothing is released.
	r.Offer(frag(1, 2, 0, 16, make([]byte, 8)))
	if q, _, done, err := r.Offer(frag(1, 2, 8, 16, make([]byte, 9))); err == nil || !strings.Contains(err.Error(), "overflows") || done || q != nil {
		t.Errorf("fragment [8,17) of a 16-byte train: done %v, %d bytes, err %v; want the overflow error", done, len(q), err)
	}
	// Inconsistent metadata across fragments of one request.
	msgs, _ := Fragment(6, 1, make([]byte, 3000), 512)
	r.Offer(msgs[0])
	evil := frag(6, 1, int(msgs[1].Frag.Offset), 2999, msgs[1].Payload) // different total
	if _, _, _, err := r.Offer(evil); err == nil {
		t.Error("inconsistent fragment accepted")
	}
	if r.Pending() != 0 {
		t.Error("inconsistent request not dropped")
	}
	// Each train a malformed fragment ended counts one drop.
	if r.Drops() != 3 {
		t.Errorf("drops = %d, want 3: the out-of-range, overflowing and inconsistent trains", r.Drops())
	}
}

func TestFragmentTooManyFragments(t *testing.T) {
	// A query needing >65535 fragments must be rejected.
	if _, err := Fragment(1, 1, make([]byte, 70000), FragHeaderLen+1); err == nil {
		t.Error("oversized fragmentation accepted")
	}
}

// TestFragmentRefusesWhatTheReassemblerWould: the sender enforces the same
// MaxQueryBytes the receiver does, so an oversize query or wire install fails
// locally with a reason, not as an Err frame or a timeout from the far end.
func TestFragmentRefusesWhatTheReassemblerWould(t *testing.T) {
	if _, err := Fragment(1, 1, make([]byte, MaxQueryBytes), MaxFragPayload); err != nil {
		t.Errorf("MaxQueryBytes refused: %v", err)
	}
	_, err := FragmentFlags(1, 1, FlagControl, make([]byte, MaxQueryBytes+1), MaxFragPayload)
	if !errors.Is(err, ErrQueryTooLarge) {
		t.Errorf("MaxQueryBytes+1: err %v, want ErrQueryTooLarge", err)
	}
}

// frag hand-builds one fragment message with an arbitrary offset — the
// adversarial/overlapping patterns Fragment itself never produces.
func frag(reqID uint32, modelID uint16, lo, total int, body []byte) *Message {
	payload := make([]byte, FragHeaderLen+len(body))
	binary.BigEndian.PutUint32(payload[0:4], uint32(lo))
	binary.BigEndian.PutUint32(payload[4:8], uint32(total))
	copy(payload[FragHeaderLen:], body)
	return &Message{Flags: FlagFragment, RequestID: reqID, ModelID: modelID, Payload: payload}
}

// TestReassemblerOverlappingFragmentsNoHoles is the regression test for the
// coverage double-count bug: fragments [0,100) and [50,150) of a 200-byte
// query sum to 200 received bytes, but bytes [150,200) never arrived. The
// reassembler must track actual byte coverage and hold the query until the
// gap is filled — never release it with zero-filled holes.
func TestReassemblerOverlappingFragmentsNoHoles(t *testing.T) {
	const total = 200
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i + 1)
	}
	r := NewReassembler(4)
	if _, _, done, err := r.Offer(frag(1, 7, 0, total, want[0:100])); done || err != nil {
		t.Fatalf("first fragment: done=%v err=%v", done, err)
	}
	if _, _, done, err := r.Offer(frag(1, 7, 50, total, want[50:150])); done || err != nil {
		t.Fatalf("overlapping fragment released a query with a hole: done=%v err=%v", done, err)
	}
	q, id, done, err := r.Offer(frag(1, 7, 150, total, want[150:200]))
	if err != nil || !done {
		t.Fatalf("gap-filling fragment: done=%v err=%v", done, err)
	}
	if id != 7 || !bytes.Equal(q, want) {
		t.Fatalf("reassembled query differs (model %d)", id)
	}
}

// TestReassemblerGappedAndDuplicateOffsets drives heavier overlap patterns:
// duplicate offsets, nested intervals and out-of-order gap fills. Release
// happens exactly when the last uncovered byte arrives.
func TestReassemblerGappedAndDuplicateOffsets(t *testing.T) {
	const total = 1000
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i * 7)
	}
	r := NewReassembler(4)
	pieces := []struct{ lo, hi int }{
		{900, 1000}, {0, 300}, {100, 250}, {0, 300}, {250, 600},
		{550, 650}, {899, 950}, {640, 890},
	}
	for _, p := range pieces {
		if _, _, done, err := r.Offer(frag(3, 1, p.lo, total, want[p.lo:p.hi])); done || err != nil {
			t.Fatalf("piece [%d,%d): done=%v err=%v", p.lo, p.hi, done, err)
		}
	}
	// Only [890,899) is missing now.
	q, _, done, err := r.Offer(frag(3, 1, 890, total, want[890:899]))
	if err != nil || !done {
		t.Fatalf("final gap fill: done=%v err=%v", done, err)
	}
	if !bytes.Equal(q, want) {
		t.Fatal("reassembled query differs after overlapping delivery")
	}
	if r.Pending() != 0 {
		t.Errorf("pending = %d", r.Pending())
	}
}

// TestReassemblerTTLExpiry drives the deadline eviction with a logical
// clock: a partial query whose remaining fragments never arrive is expired
// TTL after its first fragment — freeing its slot and counting in Expired,
// not Drops — and its late fragments re-open an entry that cannot complete.
func TestReassemblerTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	r := NewReassemblerTTL(8, time.Second)
	r.SetClock(func() time.Time { return now })

	msgs, _ := Fragment(5, 1, make([]byte, 3000), 512)
	if _, _, done, err := r.Offer(msgs[0]); done || err != nil {
		t.Fatalf("done=%v err=%v", done, err)
	}
	// Just before the deadline the entry survives an explicit sweep.
	now = now.Add(time.Second - time.Nanosecond)
	if n := r.GC(); n != 0 || r.Pending() != 1 {
		t.Fatalf("premature expiry: gc=%d pending=%d", n, r.Pending())
	}
	// At the deadline it is evicted and counted as expired.
	now = now.Add(time.Nanosecond)
	if n := r.GC(); n != 1 {
		t.Fatalf("gc = %d, want 1", n)
	}
	if r.Pending() != 0 || r.Expired() != 1 || r.Drops() != 0 {
		t.Fatalf("pending=%d expired=%d drops=%d", r.Pending(), r.Expired(), r.Drops())
	}
	// The tail arriving after expiry re-opens an entry missing the first
	// chunk: it must not complete, and it expires in turn.
	for _, m := range msgs[1:] {
		if _, _, done, err := r.Offer(m); done || err != nil {
			t.Fatalf("expired query completed: done=%v err=%v", done, err)
		}
	}
	now = now.Add(2 * time.Second)
	r.GC()
	if r.Pending() != 0 || r.Expired() != 2 {
		t.Fatalf("pending=%d expired=%d after tail expiry", r.Pending(), r.Expired())
	}
}

// TestReassemblerExpirySweepsLazily checks that Offer itself performs the
// expiry sweep: stale entries of other requests are evicted by whatever
// fragment arrives next, without an explicit GC call. The deadline is fixed
// at the first fragment — later fragments do not extend it.
func TestReassemblerExpirySweepsLazily(t *testing.T) {
	now := time.Unix(2000, 0)
	r := NewReassemblerTTL(8, time.Second)
	r.SetClock(func() time.Time { return now })

	stale, _ := Fragment(1, 1, make([]byte, 3000), 512)
	r.Offer(stale[0])
	// Progress at t+0.9s does not push the deadline out.
	now = now.Add(900 * time.Millisecond)
	r.Offer(stale[1])
	now = now.Add(200 * time.Millisecond) // t+1.1s: past the creation deadline
	fresh, _ := Fragment(2, 1, make([]byte, 3000), 512)
	if _, _, done, err := r.Offer(fresh[0]); done || err != nil {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if r.Pending() != 1 || r.Expired() != 1 {
		t.Fatalf("pending=%d expired=%d: stale entry not swept by Offer", r.Pending(), r.Expired())
	}
}

// TestReassemblerReadsClockOnlyWhenPending: with no train pending there is
// nothing to expire, so unfragmented queries through an empty table never
// read the clock; once a train is pending, the first offer past its
// deadline still expires it.
func TestReassemblerReadsClockOnlyWhenPending(t *testing.T) {
	now, reads := time.Unix(3000, 0), 0
	r := NewReassemblerTTL(8, time.Second)
	r.SetClock(func() time.Time { reads++; return now })
	plain := &Message{Payload: []byte{1, 2, 3}}
	for i := 0; i < 1000; i++ {
		if _, _, done, err := r.Offer(plain); !done || err != nil {
			t.Fatalf("unfragmented offer %d: done=%v err=%v", i, done, err)
		}
	}
	if reads != 0 {
		t.Fatalf("1000 unfragmented offers on an empty table read the clock %d times, want 0", reads)
	}
	train, _ := Fragment(7, 1, make([]byte, 3000), 512)
	r.Offer(train[0])
	if reads == 0 {
		t.Fatal("a pending train's deadline was stamped without reading the clock")
	}
	now = now.Add(time.Second - time.Nanosecond)
	r.Offer(plain)
	if r.Pending() != 1 || r.Expired() != 0 {
		t.Fatalf("before the deadline: pending=%d expired=%d", r.Pending(), r.Expired())
	}
	now = now.Add(time.Nanosecond)
	if _, _, done, err := r.Offer(plain); !done || err != nil {
		t.Fatalf("offer past the deadline: done=%v err=%v", done, err)
	}
	if r.Pending() != 0 || r.Expired() != 1 {
		t.Fatalf("the first offer past the deadline left pending=%d expired=%d", r.Pending(), r.Expired())
	}
}

// Property: fragmentation then reassembly is the identity for any payload
// and any fragment-delivery permutation, whether the reassembler gets the
// messages Fragment built or the frames a receiver decodes from them; and
// every fragment's frame is byte for byte the one a payload carrying the
// header in front of a copy of its chunk encodes to.
func TestFragmentRoundTripProperty(t *testing.T) {
	f := func(data []byte, permSeed uint64) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		const maxPayload = 64
		msgs, err := Fragment(3, 2, data, maxPayload)
		if err != nil {
			return false
		}
		decoded := make([]*Message, len(msgs))
		for i, m := range msgs {
			frame, err := m.AppendEncode(nil)
			if err != nil || !bytes.Equal(frame, copiedFragmentFrame(3, 2, data, maxPayload, i)) {
				t.Logf("fragment %d of a %d-byte query: frame %x", i, len(data), frame)
				return false
			}
			decoded[i] = new(Message)
			if err := decoded[i].Decode(frame); err != nil {
				return false
			}
		}
		rng := rand.New(rand.NewPCG(permSeed, 1))
		order := rng.Perm(len(msgs))
		for _, train := range [][]*Message{msgs, decoded} {
			r := NewReassembler(4)
			var got []byte
			for _, i := range order {
				q, _, done, err := r.Offer(train[i])
				if err != nil {
					return false
				}
				if done {
					got = q
				}
			}
			if !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// copiedFragmentFrame encodes fragment i of query's train the way a sender
// that copies each chunk behind its header into a payload of its own does:
// the frame Fragment's aliased messages must reproduce.
func copiedFragmentFrame(id uint32, model uint16, query []byte, maxPayload, i int) []byte {
	if len(query) <= maxPayload {
		frame, _ := (&Message{RequestID: id, ModelID: model, Payload: query}).AppendEncode(nil)
		return frame
	}
	chunk := maxPayload - FragHeaderLen
	lo := i * chunk
	hi := min(lo+chunk, len(query))
	payload := make([]byte, FragHeaderLen+hi-lo)
	binary.BigEndian.PutUint32(payload[0:4], uint32(lo))
	binary.BigEndian.PutUint32(payload[4:8], uint32(len(query)))
	copy(payload[FragHeaderLen:], query[lo:hi])
	frame, _ := (&Message{Flags: FlagFragment, RequestID: id, ModelID: model, Payload: payload}).AppendEncode(nil)
	return frame
}

// TestFragmentWireBytes pins a train's frames to literal bytes: a 16-byte
// query under a 14-byte payload bound is three fragments of 6, 6 and 4
// bytes, each behind its offset and the query's total.
func TestFragmentWireBytes(t *testing.T) {
	msgs, err := FragmentFlags(0x01020304, 0x0506, FlagControl, []byte("0123456789abcdef"), 14)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, flags (control|fragment), request, model, length,
	// then the fragment header (offset, total) and the chunk.
	const head = "4c50" + "01" + "18" + "01020304" + "0506"
	want := []string{
		head + "000e" + "00000000" + "00000010" + "303132333435",
		head + "000e" + "00000006" + "00000010" + "363738396162",
		head + "000c" + "0000000c" + "00000010" + "63646566",
	}
	if len(msgs) != len(want) {
		t.Fatalf("%d fragments, want %d", len(msgs), len(want))
	}
	var train []byte
	for i, m := range msgs {
		frame, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != want[i] {
			t.Errorf("fragment %d: frame %s, want %s", i, got, want[i])
		}
		if train, err = m.AppendEncode(train); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(train); got != strings.Join(want, "") {
		t.Errorf("appended train %s, want the three frames back to back", got)
	}
}

// hostileFragment is a well-formed first fragment whose wire-supplied total
// is a lie: a few bytes of body for a query declared total bytes long.
func hostileFragment(id uint32, total uint32) *Message {
	payload := make([]byte, FragHeaderLen+4)
	binary.BigEndian.PutUint32(payload[4:8], total)
	return &Message{Flags: FlagFragment, RequestID: id, ModelID: 1, Payload: payload}
}

// TestReassemblerBoundsDeclaredTotal: the first fragment's 32-bit total used
// to go straight to make([]byte, total) — one 24-byte datagram pinned up to
// 4 GiB, times the table capacity. A total past MaxQueryBytes is refused
// before anything is allocated, counted, and leaves no entry behind; a query
// of exactly MaxQueryBytes still reassembles.
func TestReassemblerBoundsDeclaredTotal(t *testing.T) {
	r := NewReassembler(4)
	// TotalAlloc is process-wide: take the quietest of a few attempts so a
	// background goroutine's allocation cannot fail the bound.
	const tries = 3
	for i, total := range []uint32{MaxQueryBytes + 1, 64 << 20, math.MaxUint32} {
		least := ^uint64(0)
		for try := 0; try < tries; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, done, err := r.Offer(hostileFragment(uint32(i+1), total))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrQueryTooLarge) || done {
				t.Fatalf("total %d: done=%v err=%v, want ErrQueryTooLarge", total, done, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= MaxFragPayload {
			t.Errorf("total %d: refusing it allocated %d bytes, want less than one fragment's %d", total, least, MaxFragPayload)
		}
	}
	if r.Oversize() != 3*tries || r.Pending() != 0 || r.Drops() != 0 {
		t.Errorf("oversize %d pending %d drops %d, want %d 0 0", r.Oversize(), r.Pending(), r.Drops(), 3*tries)
	}

	query := bytes.Repeat([]byte{0xa5}, MaxQueryBytes)
	msgs, err := Fragment(9, 1, query, 60000)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, m := range msgs {
		if q, _, done, err := r.Offer(m); err != nil {
			t.Fatal(err)
		} else if done {
			got = q
		}
	}
	if !bytes.Equal(got, query) {
		t.Error("a MaxQueryBytes query did not reassemble")
	}
}

// TestReassemblerPendingBytesBudget: in-bounds totals still add up — a full
// table of MaxQueryBytes declarations would pin capacity × 1 MiB — so the
// pending buffers share MaxPendingBytes, oldest evicted first and counted as
// a capacity drop.
func TestReassemblerPendingBytesBudget(t *testing.T) {
	r := NewReassembler(256)
	const fit = MaxPendingBytes / MaxQueryBytes
	for id := uint32(1); id <= fit+2; id++ {
		if _, _, _, err := r.Offer(hostileFragment(id, MaxQueryBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Pending() != fit || r.Drops() != 2 {
		t.Fatalf("pending %d drops %d, want %d and 2", r.Pending(), r.Drops(), fit)
	}
	// IDs 1 and 2 gave way: a fragment for 1 opens a new entry (evicting 3),
	// one for the newest finds its entry.
	r.Offer(hostileFragment(1, MaxQueryBytes))
	if r.Drops() != 3 {
		t.Errorf("re-offering an evicted request: drops %d, want 3", r.Drops())
	}
	r.Offer(hostileFragment(fit+2, MaxQueryBytes))
	if r.Pending() != fit || r.Drops() != 3 {
		t.Errorf("a fragment of a surviving request changed the table: pending %d drops %d", r.Pending(), r.Drops())
	}
	// Completed and expired entries give their bytes back.
	r.SetClock(func() time.Time { return time.Now().Add(2 * DefaultReassemblyTTL) })
	r.GC()
	for id := uint32(100); id < 100+fit; id++ {
		r.Offer(hostileFragment(id, MaxQueryBytes))
	}
	if r.Pending() != fit || r.Drops() != 3 {
		t.Errorf("after expiry the budget was not free: pending %d drops %d", r.Pending(), r.Drops())
	}
}

// TestFragmentAllocsPerQuery: a train's messages alias the query and are
// carved from one slab, so a 150 KB query costs the slab and the pointer
// slice, two allocations of a few KB, where copying its payloads into a
// slab of their own cost 161 KB; a query that fits one datagram costs one
// allocation. No payload can grow into the next.
func TestFragmentAllocsPerQuery(t *testing.T) {
	query := make([]byte, 150*1024)
	for i := range query {
		query[i] = byte(i * 7)
	}
	var msgs []*Message
	train := func() {
		var err error
		if msgs, err = Fragment(1, 2, query, MaxFragPayload); err != nil {
			t.Fatal(err)
		}
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(20, train); n > 2 {
			t.Errorf("fragmenting a 150 KB query allocates %v times, want at most 2", n)
		}
		// TotalAlloc is process-wide: take the quietest of a few attempts.
		const runs = 20
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				train()
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		if least > 16<<10 {
			t.Errorf("fragmenting a 150 KB query allocates %d bytes, want at most 16 KiB", least)
		}
		small := query[:64]
		if n := testing.AllocsPerRun(20, func() {
			if _, err := Fragment(1, 2, small, MaxFragPayload); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("a one-datagram query allocates %v times, want 1", n)
		}
	}
	train()
	if len(msgs) < 100 {
		t.Fatalf("only %d fragments", len(msgs))
	}
	for _, m := range msgs {
		lo := int(m.Frag.Offset)
		if &m.Payload[0] != &query[lo] {
			t.Fatalf("fragment at offset %d does not alias the query", lo)
		}
		if cap(m.Payload) != len(m.Payload) {
			t.Fatalf("fragment at offset %d has %d bytes of spare capacity", lo, cap(m.Payload)-len(m.Payload))
		}
	}
	second := append([]byte(nil), msgs[1].Payload...)
	_ = append(msgs[0].Payload, 0xff, 0xff, 0xff)
	if !bytes.Equal(msgs[1].Payload, second) {
		t.Error("appending to one fragment's payload overwrote the next fragment")
	}
}

// TestReassemblerInOrderTrainAllocs: coverage merges inside the span slice,
// so what a query costs the reassembler — its entry, its buffer, its one
// span — does not grow with the number of fragments it arrived in.
func TestReassemblerInOrderTrainAllocs(t *testing.T) {
	query := make([]byte, 64*1024)
	perQuery := func(maxPayload int) (allocs float64, frags int) {
		msgs, err := Fragment(1, 1, query, maxPayload)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReassembler(4)
		id := uint32(0)
		return testing.AllocsPerRun(20, func() {
			id++
			for _, m := range msgs {
				m.RequestID = id
				if _, _, _, err := r.Offer(m); err != nil {
					t.Fatal(err)
				}
			}
			if r.Pending() != 0 {
				t.Fatal("train did not complete")
			}
		}), len(msgs)
	}
	few, nFew := perQuery(16 * 1024)
	many, nMany := perQuery(FragHeaderLen + 64)
	if nMany < 100*nFew {
		t.Fatalf("trains of %d and %d fragments do not tell the two apart", nFew, nMany)
	}
	if many != few || many > 4 {
		t.Errorf("a %d-fragment train costs %v allocations, a %d-fragment one %v: want equal and at most 4", nMany, many, nFew, few)
	}
}

// TestReassemblerKeepsSourcesApart: every client numbers its requests from 1,
// so two senders' same-size trains to one model used to interleave into one
// buffer and one of them was answered on the other's bytes. Keyed by sender
// and ID, each train completes on its own bytes; the zero source Offer uses
// is one more sender.
func TestReassemblerKeepsSourcesApart(t *testing.T) {
	const size = 5000
	mk := func(fill byte) ([]byte, []*Message) {
		q := bytes.Repeat([]byte{fill}, size)
		msgs, err := Fragment(1, 7, q, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return q, msgs
	}
	qa, a := mk(0xaa)
	qb, b := mk(0xbb)
	qc, c := mk(0xcc)
	srcA := netip.MustParseAddrPort("10.0.0.1:4000")
	srcB := netip.MustParseAddrPort("10.0.0.1:4001") // same host, another socket
	r := NewReassembler(8)
	got := map[string][]byte{}
	offer := func(name string, q []byte, done bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if done {
			got[name] = q
		}
	}
	for i := range a {
		// B's fragments run a step ahead of A's and back to front, so a
		// shared buffer would complete early on mixed bytes.
		q, _, done, err := r.OfferBatch(srcB, b[len(b)-1-i], &BatchClock{})
		offer("b", q, done, err)
		q, _, done, err = r.OfferBatch(srcA, a[i], &BatchClock{})
		offer("a", q, done, err)
		q, _, done, err = r.Offer(c[i])
		offer("c", q, done, err)
		if i < len(a)-1 && (len(got) != 0 || r.Pending() != 3) {
			t.Fatalf("after %d fragments each: %d done, %d pending, want 0 and 3", i+1, len(got), r.Pending())
		}
	}
	for name, want := range map[string][]byte{"a": qa, "b": qb, "c": qc} {
		if !bytes.Equal(got[name], want) {
			t.Errorf("sender %s did not get its own bytes back (got %d bytes, % x...)", name, len(got[name]), got[name][:min(4, len(got[name]))])
		}
	}
	if r.Pending() != 0 || r.Drops() != 0 {
		t.Errorf("pending %d drops %d after three clean trains", r.Pending(), r.Drops())
	}
}
