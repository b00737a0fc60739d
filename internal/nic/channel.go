package nic

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
)

// ErrClosed is what a Channel's pending and later calls return once it is
// closed, or once its socket failed.
var ErrClosed = errors.New("nic: channel closed")

// errCancelled ends a call its caller abandoned.
var errCancelled = errors.New("nic: call abandoned by its caller")

// callTimeout is a call's expiry. It satisfies net.Error, so callers
// classify it alongside socket timeouts.
type callTimeout struct{ addr string }

func (e callTimeout) Error() string { return fmt.Sprintf("nic: call to %s timed out", e.addr) }
func (callTimeout) Timeout() bool   { return true }
func (callTimeout) Temporary() bool { return true }

// reply is what the reader hands a waiting call: its response, or why the
// frame that answered it could not be read.
type reply struct {
	resp *Response
	err  error
}

// Channel is a client's UDP channel to a Lightning NIC, shared by any number
// of goroutines: each call numbers its request, puts its train on the wire
// in one batched write and waits, while one reader goroutine walks every
// response datagram's frames and hands each to the call waiting on its
// request ID. lightning.Client and the cluster coordinator's node links are
// Channels; a hedged duplicate and a probe share one socket without taking
// turns.
type Channel struct {
	addr string
	conn net.Conn
	// bc is the batched view of conn: a call's whole train leaves in one
	// WriteBatch, and the reader drains several datagrams per read.
	bc netbatch.BatchConn

	mu      sync.Mutex
	nextID  uint32
	waiters map[uint32]chan reply

	// done is closed by Close, which the reader calls on a socket failure;
	// then every pending and later call fails with ErrClosed.
	done      chan struct{}
	closeOnce sync.Once
}

// NewChannel starts a channel over conn, a socket connected to a NIC, and
// its reader. Close stops both.
func NewChannel(conn net.Conn) *Channel {
	ch := &Channel{
		addr:    conn.RemoteAddr().String(),
		conn:    conn,
		bc:      netbatch.WrapConn(conn, nil),
		waiters: make(map[uint32]chan reply),
		done:    make(chan struct{}),
	}
	go ch.readLoop()
	return ch
}

// readLoop owns the read side of the socket until Close closes it. A
// refused datagram (the peer's port is closed, reported by ICMP) fails the
// calls in flight and the channel lives on for the next; any other read
// error closes the channel.
func (ch *Channel) readLoop() {
	ms := netbatch.MakeMessages(16, 65536)
	for {
		cnt, err := ch.bc.ReadBatch(ms)
		if err != nil {
			select {
			case <-ch.done:
				return
			default:
			}
			if !errors.Is(err, syscall.ECONNREFUSED) {
				_ = ch.Close()
				return
			}
			ch.mu.Lock()
			pending := ch.waiters
			ch.waiters = make(map[uint32]chan reply)
			ch.mu.Unlock()
			for _, w := range pending {
				w <- reply{err: err}
			}
			continue
		}
		for i := 0; i < cnt; i++ {
			ch.dispatch(ms[i].Bytes())
		}
	}
}

// dispatch walks one datagram's coalesced frames and hands each response to
// the call waiting on its request ID. A response nobody waits for (its call
// timed out, or a duplicate) is dropped.
func (ch *Channel) dispatch(data []byte) {
	for len(data) > 0 {
		var msg Message
		n, err := msg.DecodeNext(data)
		if err != nil {
			return // a damaged datagram: its call times out
		}
		data = data[n:]
		if !msg.IsResponse() {
			continue
		}
		resp, err := ParseResponse(&msg)
		if err == nil {
			// ParseResponse aliases Probs into the read slot; the copy
			// hands the caller bytes it owns.
			resp.Probs = append([]uint8(nil), resp.Probs...)
		}
		ch.mu.Lock()
		w := ch.waiters[msg.RequestID]
		delete(ch.waiters, msg.RequestID)
		ch.mu.Unlock()
		if w != nil {
			w <- reply{resp, err} // buffered: never blocks the reader
		}
	}
}

// Call sends one request, a query or a control payload as flags say, and
// waits at most timeout for its response. A payload too large for one
// datagram travels as fragments that all carry flags. Closing cancel
// abandons the call; a nil cancel never does. A response the server
// answered with its error flag is returned as it is: the caller judges it.
func (ch *Channel) Call(cancel <-chan struct{}, flags uint8, modelID uint16, payload []byte, timeout time.Duration) (*Response, error) {
	ch.mu.Lock()
	select {
	case <-ch.done:
		ch.mu.Unlock()
		return nil, ErrClosed
	default:
	}
	ch.nextID++
	id := ch.nextID
	w := make(chan reply, 1)
	ch.waiters[id] = w
	ch.mu.Unlock()
	defer func() {
		ch.mu.Lock()
		delete(ch.waiters, id)
		ch.mu.Unlock()
	}()

	// Send scratch is the call's own: calls run concurrently.
	_, wire, err := AppendTrain(nil, nil, id, modelID, flags, payload)
	if err != nil {
		return nil, err
	}
	for len(wire) > 0 {
		sent, err := ch.bc.WriteBatch(wire)
		wire = wire[sent:]
		if err != nil {
			return nil, fmt.Errorf("nic: sending to %s: %w", ch.addr, err)
		}
	}

	if timeout <= 0 {
		timeout = time.Millisecond
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-w:
		return r.resp, r.err
	case <-t.C:
		return nil, callTimeout{ch.addr}
	case <-cancel:
		return nil, errCancelled
	case <-ch.done:
		return nil, ErrClosed
	}
}

// Close tears the channel down: the socket closes, the reader exits, and
// every pending call fails with ErrClosed.
func (ch *Channel) Close() error {
	var err error
	ch.closeOnce.Do(func() {
		close(ch.done)
		err = ch.conn.Close()
	})
	return err
}

// AppendTrain appends request id's frames to buf, one frame or the train
// FragmentFlags cuts when payload does not fit one datagram, and a datagram
// view of each frame to ms, ready for one WriteBatch. A view keeps the array
// its frame was encoded into, so views appended before a later call grew
// buf stay valid. On error buf and ms come back as they were.
func AppendTrain(buf []byte, ms []netbatch.Message, id uint32, modelID uint16, flags uint8, payload []byte) ([]byte, []netbatch.Message, error) {
	one := [1]*Message{{Flags: flags, RequestID: id, ModelID: modelID, Payload: payload}}
	train := one[:]
	if len(payload) > MaxFragPayload {
		var err error
		if train, err = FragmentFlags(id, modelID, flags, payload, MaxFragPayload); err != nil {
			return buf, ms, err
		}
	}
	b0, m0 := len(buf), len(ms)
	buf = slices.Grow(buf, len(payload)+len(train)*(WireHeaderLen+FragHeaderLen))
	for _, m := range train {
		off := len(buf)
		var err error
		if buf, err = m.AppendEncode(buf); err != nil {
			return buf[:b0], ms[:m0], err
		}
		ms = append(ms, netbatch.Message{Buf: buf[off:len(buf):len(buf)], N: len(buf) - off})
	}
	return buf, ms, nil
}
