package nic

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"
)

// channelPair starts a Channel connected to a bare UDP socket the test
// answers by hand.
func channelPair(t *testing.T) (net.PacketConn, *Channel) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pc.Close() })
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(conn)
	t.Cleanup(func() { _ = ch.Close() })
	return pc, ch
}

// readQuery reads one query datagram at the test's end of the pair.
func readQuery(t *testing.T, pc net.PacketConn) (uint32, net.Addr) {
	t.Helper()
	if err := pc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, from, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := m.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	return m.RequestID, from
}

// send writes one frame to the channel's socket.
func send(t *testing.T, pc net.PacketConn, to net.Addr, m *Message) {
	t.Helper()
	frame, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.WriteTo(frame, to); err != nil {
		t.Fatal(err)
	}
}

type callResult struct {
	resp *Response
	err  error
}

func goCall(ch *Channel, payload byte, timeout time.Duration) <-chan callResult {
	out := make(chan callResult, 1)
	go func() {
		resp, err := ch.Call(nil, 0, 7, []byte{payload}, timeout)
		out <- callResult{resp, err}
	}()
	return out
}

// TestChannelLateResponseReachesNobody: the answer to a call that already
// timed out arrives just ahead of the next call's. Nobody waits on it, so
// the reader drops it, and the next call gets its own answer.
func TestChannelLateResponseReachesNobody(t *testing.T) {
	pc, ch := channelPair(t)
	first := goCall(ch, 1, 20*time.Millisecond)
	id1, from := readQuery(t, pc)
	var ne net.Error
	if r := <-first; !errors.As(r.err, &ne) || !ne.Timeout() {
		t.Fatalf("unanswered call returned %v, %v; want a timeout", r.resp, r.err)
	}
	second := goCall(ch, 2, 5*time.Second)
	id2, _ := readQuery(t, pc)
	send(t, pc, from, (&Response{RequestID: id1, ModelID: 7, Class: 1}).ToMessage())
	send(t, pc, from, (&Response{RequestID: id2, ModelID: 7, Class: 2, Probs: []uint8{9}}).ToMessage())
	r := <-second
	if r.err != nil || r.resp.RequestID != id2 || r.resp.Class != 2 || len(r.resp.Probs) != 1 {
		t.Fatalf("next call got %+v, %v; want its own answer (request %d, class 2)", r.resp, r.err, id2)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if len(ch.waiters) != 0 {
		t.Errorf("%d waiters left after both calls returned", len(ch.waiters))
	}
}

// TestChannelUnparsableResponseReachesItsCall: a response frame too short
// for a class is handed to its call as ParseResponse's error, at once, not
// left to time out.
func TestChannelUnparsableResponseReachesItsCall(t *testing.T) {
	pc, ch := channelPair(t)
	call := goCall(ch, 1, 5*time.Second)
	id, from := readQuery(t, pc)
	send(t, pc, from, &Message{Flags: FlagResponse, RequestID: id, ModelID: 7, Payload: []byte{1}})
	if r := <-call; !errors.Is(r.err, errResponsePayload) || r.resp != nil {
		t.Fatalf("call got %v, %v; want %v", r.resp, r.err, errResponsePayload)
	}
}

// TestChannelCloseFailsPendingAndLaterCalls: Close ends a call in flight
// and every later one with ErrClosed.
func TestChannelCloseFailsPendingAndLaterCalls(t *testing.T) {
	pc, ch := channelPair(t)
	pending := goCall(ch, 1, 10*time.Second)
	readQuery(t, pc) // the call is registered and its query sent
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if r := <-pending; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("pending call got %v, %v; want ErrClosed", r.resp, r.err)
	}
	if _, err := ch.Call(nil, 0, 7, []byte{2}, 10*time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close returned %v; want ErrClosed", err)
	}
}

// TestChannelRefusedPortFailsCallsInFlight: a datagram to a closed port
// comes back refused. The call in flight fails with the refusal, and the
// channel stays open for the next call, which is refused in its turn.
func TestChannelRefusedPortFailsCallsInFlight(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	_ = pc.Close()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(conn)
	defer ch.Close()
	for i := 0; i < 2; i++ {
		if _, err := ch.Call(nil, 0, 7, []byte{1}, 5*time.Second); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("call %d to a closed port returned %v; want a refusal", i, err)
		}
	}
}
