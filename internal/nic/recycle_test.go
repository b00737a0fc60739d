package nic

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"
	"weak"
)

// reassemble offers every fragment of query under id and returns what the
// completing fragment released.
func reassemble(t *testing.T, r *Reassembler, id uint32, query []byte) []byte {
	t.Helper()
	msgs, err := Fragment(id, 1, query, MaxFragPayload)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		q, _, done, err := r.Offer(m)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if string(q) != string(query) {
				t.Fatalf("request %d reassembled to different bytes", id)
			}
			return q
		}
	}
	t.Fatalf("request %d never completed", id)
	return nil
}

func randomQuery(rng *rand.Rand, n int) []byte {
	q := make([]byte, n)
	for i := range q {
		q[i] = byte(rng.Uint32())
	}
	return q
}

// TestReassemblerRecyclesReleasedBuffers: a buffer handed back with Release
// carries the next train that fits it — at least as long and less than
// twice as long — and that train's bytes overwrite every one the previous
// query left; a train that does not fit gets a buffer of its own.
func TestReassemblerRecyclesReleasedBuffers(t *testing.T) {
	// The idle buffers sit in a sync.Pool, whose Get never takes another
	// P's private slot: on one P, the buffer Release put back is the one
	// the next train gets, whichever P the goroutine ran on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewPCG(3, 4))
	for _, c := range []struct {
		size  int
		reuse bool
	}{
		{20_000, true},  // the same size
		{10_001, true},  // more than half the buffer
		{10_000, false}, // half: the buffer would be charged double
		{20_001, false}, // one byte too many
	} {
		r := NewReassembler(8)
		first := reassemble(t, r, 1, randomQuery(rng, 20_000))
		r.Release(first)
		got := reassemble(t, r, 2, randomQuery(rng, c.size))
		reused := unsafe.SliceData(got) == unsafe.SliceData(first)
		if reused != c.reuse && !raceEnabled {
			t.Errorf("a %d-byte train after a released 20000-byte buffer: reused %v, want %v", c.size, reused, c.reuse)
		}
		if r.Pending() != 0 || r.Drops() != 0 {
			t.Errorf("pending %d drops %d, want 0 0", r.Pending(), r.Drops())
		}
	}
}

// TestReassemblerIdleBuffersAreNotPinned: a released buffer that no train
// has taken is the GC's: two collections later nothing keeps it alive, so
// an idle reassembler holds no reassembly memory.
func TestReassemblerIdleBuffersAreNotPinned(t *testing.T) {
	r := NewReassembler(8)
	buf := reassemble(t, r, 1, make([]byte, 64<<10))
	held := weak.Make(unsafe.SliceData(buf))
	r.Release(buf)
	buf = nil
	runtime.GC()
	runtime.GC()
	if held.Value() != nil {
		t.Error("a released, idle reassembly buffer outlived two collections")
	}
	runtime.KeepAlive(r)
}

// TestReassemblerRecycledBuffersStayWithinBudget: what a pending entry's
// buffer can hold is what it is charged, so however recycled buffers are
// matched to trains, the pending buffers together never exceed
// MaxPendingBytes and the charge is exactly their capacity.
func TestReassemblerRecycledBuffersStayWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	r := NewReassembler(256)
	check := func(when string) {
		t.Helper()
		sum := 0
		for _, pq := range r.pending {
			sum += cap(pq.buf)
		}
		if sum != r.bytes || sum > MaxPendingBytes {
			t.Fatalf("%s: pending buffers hold %d bytes, charged %d, budget %d", when, sum, r.bytes, MaxPendingBytes)
		}
	}
	id := uint32(0)
	for round := 0; round < 6; round++ {
		// Complete and release a few large queries so their buffers go
		// idle, then open partial trains of assorted totals over them.
		for k := 0; k < 3; k++ {
			id++
			r.Release(reassemble(t, r, id, make([]byte, MaxQueryBytes/2+rng.IntN(MaxQueryBytes/2))))
			check("after a release")
		}
		for k := 0; k < 40; k++ {
			id++
			if _, _, _, err := r.Offer(hostileFragment(id, uint32(1+rng.IntN(MaxQueryBytes)))); err != nil {
				t.Fatal(err)
			}
			check("after opening a train")
		}
	}
	if r.Drops() == 0 {
		t.Error("the budget never pressed: the test did not exercise eviction")
	}
}
