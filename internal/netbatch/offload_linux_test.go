//go:build linux && (amd64 || arm64)

package netbatch

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"
)

// groReceiver is a loopback socket opted into GRO, read through the fast
// path into GRO-sized slots.
type groReceiver struct {
	uc   *net.UDPConn
	bc   BatchConn
	addr *net.UDPAddr
	ms   []Message
}

func newGROReceiver(t *testing.T) *groReceiver {
	t.Helper()
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uc.Close() })
	r := &groReceiver{uc: uc, bc: Wrap(uc, nil), addr: uc.LocalAddr().(*net.UDPAddr), ms: MakeMessages(8, GROSlot)}
	if err := EnableGRO(r.bc, GROSlot); err != nil {
		t.Fatal(err)
	}
	return r
}

// read returns the next k buffers as (N, Seg) pairs and their datagrams,
// cut at Seg.
func (r *groReceiver) read(t *testing.T, k int) (bufs [][2]int, dgrams [][]byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(bufs) < k {
		if err := r.bc.SetReadDeadline(deadline); err != nil {
			t.Fatal(err)
		}
		n, err := r.bc.ReadBatch(r.ms)
		if err != nil {
			t.Fatalf("after %d of %d buffers: %v", len(bufs), k, err)
		}
		for _, m := range r.ms[:n] {
			bufs = append(bufs, [2]int{m.N, m.Seg})
			data := m.Bytes()
			for m.Seg > 0 && len(data) > m.Seg {
				dgrams = append(dgrams, append([]byte(nil), data[:m.Seg]...))
				data = data[m.Seg:]
			}
			dgrams = append(dgrams, append([]byte(nil), data...))
		}
	}
	return bufs, dgrams
}

// offloadSender is an unconnected fast-path socket with GSO live.
func offloadSender(t testing.TB) *mmsgConn {
	t.Helper()
	uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uc.Close() })
	c, ok := Wrap(uc, nil).(*mmsgConn)
	if !ok {
		t.Skip("fast path not selected")
	}
	if gso, _ := c.offload(); !gso {
		t.Skip("kernel without UDP_SEGMENT")
	}
	return c
}

// payloads builds one message per size, message k filled with byte k+1.
func payloads(sizes []int, dst func(k int) net.Addr) []Message {
	ms := make([]Message, len(sizes))
	for k, n := range sizes {
		ms[k] = Message{Buf: bytes.Repeat([]byte{byte(k + 1)}, n), N: n, Addr: dst(k)}
	}
	return ms
}

func repeat(n, size int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = size
	}
	return s
}

// TestGSOGroupingRule pins which messages share a segmented header and
// that a GRO receiver reads exactly those trains back, cut into exactly the
// datagrams that were sent.
func TestGSOGroupingRule(t *testing.T) {
	if FallbackForced() {
		t.Skip("offload is a fast-path property")
	}
	cases := []struct {
		name  string
		sizes []int
		dst   []int    // receiver per message (nil: all to receiver 0)
		runs  []int    // messages per header
		bufs  [][2]int // (N, Seg) per buffer, receivers in order
	}{
		{"size change mid-run", []int{100, 100, 200, 200}, nil,
			[]int{2, 2}, [][2]int{{200, 100}, {400, 200}}},
		{"shorter last segment", []int{100, 100, 40, 100}, nil,
			[]int{3, 1}, [][2]int{{240, 100}, {100, 0}}},
		{"more than 64 segments", repeat(70, 10), nil,
			[]int{64, 6}, [][2]int{{640, 10}, {60, 10}}},
		{"more than 65507 bytes", repeat(50, 1400), nil,
			[]int{46, 4}, [][2]int{{46 * 1400, 1400}, {4 * 1400, 1400}}},
		{"interleaved destinations", repeat(5, 50), []int{0, 0, 1, 1, 0},
			[]int{2, 2, 1}, [][2]int{{100, 50}, {50, 0}, {100, 50}}},
		{"zero-length message", []int{50, 0, 50, 50}, nil,
			[]int{1, 1, 2}, [][2]int{{50, 0}, {0, 0}, {100, 50}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := offloadSender(t)
			rx := []*groReceiver{newGROReceiver(t), newGROReceiver(t)}
			if _, gro := Offload(rx[0].bc); !gro {
				t.Skip("kernel without UDP_GRO")
			}
			to := func(k int) int {
				if tc.dst == nil {
					return 0
				}
				return tc.dst[k]
			}
			ms := payloads(tc.sizes, func(k int) net.Addr { return rx[to(k)].addr })

			c.wr.grow(len(ms))
			nh, bad := c.pack(ms, 0)
			var runs []int
			for h := 0; h < nh; h++ {
				runs = append(runs, c.wr.first[h+1]-c.wr.first[h])
			}
			if bad || !slices.Equal(runs, tc.runs) {
				t.Fatalf("headers carry %v messages (bad addr %v), want %v", runs, bad, tc.runs)
			}

			if n, err := c.WriteBatch(ms); n != len(ms) || err != nil {
				t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(ms))
			}
			var bufs [][2]int
			for r := range rx {
				var want [][]byte
				nbuf := 0
				for h, k := 0, 0; h < len(tc.runs); k, h = k+tc.runs[h], h+1 {
					if to(k) == r {
						nbuf++
						for _, m := range ms[k : k+tc.runs[h]] {
							want = append(want, m.Bytes())
						}
					}
				}
				if nbuf == 0 {
					continue
				}
				got, dgrams := rx[r].read(t, nbuf)
				bufs = append(bufs, got...)
				if len(dgrams) != len(want) {
					t.Fatalf("receiver %d read %d datagrams, want %d", r, len(dgrams), len(want))
				}
				for i := range want {
					if !bytes.Equal(dgrams[i], want[i]) {
						t.Fatalf("receiver %d datagram %d: %d bytes of %d, want %d bytes of %d",
							r, i, len(dgrams[i]), first(dgrams[i]), len(want[i]), first(want[i]))
					}
				}
			}
			if !slices.Equal(bufs, tc.bufs) {
				t.Fatalf("read buffers (N, Seg) %v, want %v", bufs, tc.bufs)
			}
		})
	}
}

// TestWriteBatchBadAddrAfterRun keeps the WriteBatch contract under
// grouping: the failed message is ms[n], after the run before it was sent.
func TestWriteBatchBadAddrAfterRun(t *testing.T) {
	c := offloadSender(t)
	r := newGROReceiver(t)
	ms := payloads(repeat(4, 30), func(k int) net.Addr {
		if k == 3 {
			return badAddr{}
		}
		return r.addr
	})
	if n, err := c.WriteBatch(ms); n != 3 || !errors.Is(err, errBadAddr) {
		t.Fatalf("WriteBatch = %d, %v; want 3, errBadAddr", n, err)
	}
	if _, dgrams := r.read(t, 1); len(dgrams) != 3 {
		t.Fatalf("receiver read %d datagrams, want 3", len(dgrams))
	}
}

type badAddr struct{}

func (badAddr) Network() string { return "bad" }
func (badAddr) String() string  { return "bad" }

// TestGSOStickyFallbackOnEIO injects the kernel's EIO refusal of a
// segmented send: the batch still goes out whole, one datagram per header,
// and GSO stays off for the conn — the next batch is never segmented.
func TestGSOStickyFallbackOnEIO(t *testing.T) {
	c := offloadSender(t)
	r := newGROReceiver(t)
	refused := 0
	send := c.wrFn
	c.wrFn = func(fd uintptr) bool {
		if c.wr.hdrs[c.wrOff].hdr.Control != nil {
			refused++
			c.ctr.WriteCalls.Add(1)
			c.wrN, c.wrErr = 0, syscall.EIO
			return true
		}
		return send(fd)
	}
	for round := 0; round < 2; round++ {
		ms := payloads(repeat(4, 100), func(int) net.Addr { return r.addr })
		if n, err := c.WriteBatch(ms); n != 4 || err != nil {
			t.Fatalf("round %d: WriteBatch = %d, %v; want 4, nil", round, n, err)
		}
		bufs, dgrams := r.read(t, 4)
		for i, b := range bufs {
			if b != [2]int{100, 0} || dgrams[i][0] != byte(i+1) {
				t.Fatalf("round %d: buffer %d is (N, Seg) %v holding message %d, want one 100-byte datagram %d",
					round, i, b, dgrams[i][0], i+1)
			}
		}
	}
	if refused != 1 {
		t.Fatalf("%d segmented sends attempted, want 1 before GSO went off", refused)
	}
	if gso, _ := c.offload(); gso {
		t.Fatal("GSO still live after the kernel refused a segmented send")
	}
}

func first(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	return int(b[0])
}

// BenchmarkSendEightToTwoClients prices the ways a server can send one
// batch's eight 40-byte responses to two clients, A B A B … as they were
// queued: one WriteBatch a datagram ("8x1"), one WriteBatch of all eight
// ("1x8-interleaved"), one WriteBatch grouped by client ("1x8-grouped"),
// whose two runs GSO sends as one segmented send each, and one WriteBatch
// of two datagrams that each pack one client's four responses ("packed").
// Each op also reads the responses back on the two clients, whose sockets
// have no GRO, so cpu-us/response — the process's user and system CPU from
// getrusage over the eight responses — counts the sender's and the
// receivers' work together.
//
//	go test -run '^$' -bench SendEightToTwoClients ./internal/netbatch
func BenchmarkSendEightToTwoClients(b *testing.B) {
	if FallbackForced() {
		b.Skip("offload is a fast-path property")
	}
	const k, size = 8, 40
	for _, c := range []struct {
		name    string
		perCall int
		grouped bool
		packed  bool
	}{{"8x1", 1, false, false}, {"1x8-interleaved", k, false, false}, {"1x8-grouped", k, true, false}, {"packed", 2, true, true}} {
		b.Run(c.name, func(b *testing.B) {
			s := offloadSender(b)
			var clients [2]BatchConn
			var addrs [2]net.Addr
			for i := range clients {
				uc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { uc.Close() })
				clients[i], addrs[i] = Wrap(uc, nil), uc.LocalAddr()
				if err := clients[i].SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
					b.Fatal(err)
				}
			}
			// dgrams datagrams leave, dgrams/2 to each client.
			dgrams, sizes := k, repeat(k, size)
			if c.packed {
				dgrams, sizes = 2, repeat(2, k/2*size)
			}
			ms := payloads(sizes, func(i int) net.Addr {
				if c.grouped {
					return addrs[i*2/dgrams]
				}
				return addrs[i%2]
			})
			rx := MakeMessages(k, 2048)
			var before, after syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				for i := 0; i < dgrams; i += c.perCall {
					if n, err := s.WriteBatch(ms[i : i+c.perCall]); n != c.perCall || err != nil {
						b.Fatalf("WriteBatch = %d, %v", n, err)
					}
				}
				for _, cl := range clients {
					for got := 0; got < dgrams/2; {
						n, err := cl.ReadBatch(rx)
						if err != nil {
							b.Fatal(err)
						}
						got += n
					}
				}
			}
			b.StopTimer()
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
				b.Fatal(err)
			}
			cpu := time.Duration(after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano())
			b.ReportMetric(float64(cpu.Microseconds())/float64(b.N*k), "cpu-us/response")
		})
	}
}
