package frontdoor

import (
	"net/netip"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestAdmissionReturnsStorage: a query admission refuses at its model's full
// queue, and one a worker sheds past its budget, each give their storage
// back at once — the door's job slot, and a reassembled query's buffer,
// which the reassembler's next train of that size then reuses.
func TestAdmissionReturnsStorage(t *testing.T) {
	// The reassembler's idle buffers sit in a sync.Pool, whose Get never
	// takes another P's private slot: on one P, a buffer a worker goroutine
	// put back is the one the test's next train gets.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const total = 3000
	train := func(t *testing.T, id uint32) []*nic.Message {
		msgs, err := nic.Fragment(id, 1, make([]byte, total), 1000)
		if err != nil {
			t.Fatal(err)
		}
		return msgs
	}
	// direct reassembles a train without the door and returns its buffer.
	direct := func(t *testing.T, r *nic.Reassembler, id uint32) []byte {
		for _, m := range train(t, id) {
			if q, _, done, err := r.Offer(m); err != nil {
				t.Fatal(err)
			} else if done {
				return q
			}
		}
		t.Fatal("train did not complete")
		return nil
	}
	setup := func() (*Door, *nic.Admitter, *time.Time) {
		now := time.Unix(1, 0)
		clock := func() time.Time { return now }
		d := New(nic.NewReassembler(16), nic.AdmissionConfig{MaxQueue: 1, Budget: time.Millisecond}, clock)
		admit := nic.NewAdmitter(d.admission, 4)
		admit.SetClock(clock)
		return d, admit, &now
	}
	offer := func(t *testing.T, d *Door, admit *nic.Admitter, msgs ...*nic.Message) {
		for _, m := range msgs {
			if _, ok, err := d.handle(m, netip.AddrPort{}, &nic.BatchClock{}, admit, fault.Addr{}); ok || err != nil {
				t.Fatalf("request %d answered inline (%v, %v)", m.RequestID, ok, err)
			}
		}
	}
	// primed releases one reassembly buffer to the pool and returns it.
	primed := func(t *testing.T, d *Door) []byte {
		x := direct(t, d.reasm, 100)
		d.reasm.Release(x)
		return x
	}
	reused := func(t *testing.T, d *Door, x []byte, what string) {
		if raceEnabled {
			return // -race's sync.Pool drops puts at random
		}
		if y := direct(t, d.reasm, 200); unsafe.SliceData(y) != unsafe.SliceData(x) {
			t.Errorf("the %s query's reassembly buffer did not come back", what)
		}
	}

	t.Run("dropped", func(t *testing.T) {
		d, admit, _ := setup()
		offer(t, d, admit, &nic.Message{RequestID: 1, ModelID: 1, Payload: []byte{1, 2, 3}})
		offer(t, d, admit, &nic.Message{RequestID: 2, ModelID: 1, Payload: []byte{4, 5, 6}})
		x := primed(t, d)
		offer(t, d, admit, train(t, 3)...)
		if got := d.Stats().QueueFull; got != 2 {
			t.Fatalf("QueueFull %d, want 2", got)
		}
		if len(d.jobs) != 1 {
			t.Errorf("%d free job slots after two drops, want 1", len(d.jobs))
		}
		reused(t, d, x, "dropped")
	})

	t.Run("shed", func(t *testing.T) {
		d, admit, now := setup()
		x := primed(t, d)
		offer(t, d, admit, train(t, 3)...)
		*now = now.Add(2 * time.Millisecond)
		called := 0
		l := &loop{d: d, admit: admit, tx: &txBatcher{d: d, bc: netbatch.Wrap(fault.NewStubConn(), &d.ctr)},
			h: func([]Request, []nic.Response, []error) { called++ }}
		l.startWorkers(1)()
		if got := d.Stats().Shed; got != 1 || called != 0 {
			t.Fatalf("shed %d, handler called %d times: want 1 and 0", got, called)
		}
		if len(d.jobs) != 1 {
			t.Errorf("%d free job slots after a shed, want 1", len(d.jobs))
		}
		reused(t, d, x, "shed")
	})
}
