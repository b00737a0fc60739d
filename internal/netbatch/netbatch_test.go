package netbatch_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
)

// pairUDP returns two loopback UDP sockets, a "server" PacketConn and a
// "client" conn connected to it.
func pairUDP(t *testing.T) (*net.UDPConn, *net.UDPConn) {
	t.Helper()
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// drainN reads until n messages arrived or the deadline passes.
func drainN(t *testing.T, bc netbatch.BatchConn, ms []netbatch.Message, n int) []netbatch.Message {
	t.Helper()
	var got []netbatch.Message
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n {
		if err := bc.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		k, err := bc.ReadBatch(ms)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if time.Now().After(deadline) {
					t.Fatalf("timed out with %d/%d messages", len(got), n)
				}
				continue
			}
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			cp := netbatch.Message{Buf: append([]byte(nil), ms[i].Bytes()...), N: ms[i].N, Addr: ms[i].Addr}
			got = append(got, cp)
		}
	}
	return got
}

// TestRoundTrip drives a batch of datagrams client→server and replies
// server→client through whatever path Wrap selects on this platform.
func TestRoundTrip(t *testing.T) {
	srv, cli := pairUDP(t)
	var sctr, cctr netbatch.Counters
	sbc := netbatch.Wrap(srv, &sctr)
	cbc := netbatch.WrapConn(cli, &cctr)

	const n = 8
	out := make([]netbatch.Message, n)
	for i := range out {
		out[i].Buf = []byte(fmt.Sprintf("query-%02d", i))
		out[i].N = len(out[i].Buf)
	}
	if sent, err := cbc.WriteBatch(out); err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}

	ms := netbatch.MakeMessages(n, 2048)
	got := drainN(t, sbc, ms, n)
	for i, m := range got {
		if want := fmt.Sprintf("query-%02d", i); string(m.Bytes()) != want {
			t.Fatalf("message %d = %q, want %q", i, m.Bytes(), want)
		}
		if m.Addr == nil {
			t.Fatalf("message %d has no source address", i)
		}
	}

	// Echo each message back to its rx address.
	back := make([]netbatch.Message, n)
	for i := range back {
		back[i] = netbatch.Message{Buf: got[i].Bytes(), N: got[i].N, Addr: got[i].Addr}
	}
	if sent, err := sbc.WriteBatch(back); err != nil || sent != n {
		t.Fatalf("reply WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}
	cms := netbatch.MakeMessages(n, 2048)
	cgot := drainN(t, cbc, cms, n)
	for i, m := range cgot {
		if want := fmt.Sprintf("query-%02d", i); string(m.Bytes()) != want {
			t.Fatalf("echo %d = %q, want %q", i, m.Bytes(), want)
		}
	}
	if sctr.RxMsgs.Load() != n || sctr.TxMsgs.Load() != n {
		t.Fatalf("server counters rx=%d tx=%d, want %d/%d", sctr.RxMsgs.Load(), sctr.TxMsgs.Load(), n, n)
	}
	if sctr.ReadCalls.Load() == 0 || sctr.WriteCalls.Load() == 0 {
		t.Fatal("server syscall counters did not move")
	}
	t.Logf("fastpath=%v server: %d rx msgs in %d read calls, %d tx msgs in %d write calls",
		sbc.FastPath(), sctr.RxMsgs.Load(), sctr.ReadCalls.Load(), sctr.TxMsgs.Load(), sctr.WriteCalls.Load())
}

// TestFastPathBatchesSyscalls pins the amortization claim itself: with 8
// datagrams queued, one recvmmsg drains them all, and one sendmmsg flushes
// 8 replies — so syscalls/message ≤ 0.25 counting the EAGAIN probe. Runs
// only where the fast path exists.
func TestFastPathBatchesSyscalls(t *testing.T) {
	if !netbatch.FastPathAvailable() || netbatch.FallbackForced() {
		t.Skip("no fast path on this platform/config")
	}
	srv, cli := pairUDP(t)
	var sctr netbatch.Counters
	sbc := netbatch.Wrap(srv, &sctr)
	if !sbc.FastPath() {
		t.Fatal("Wrap did not select the fast path for a *net.UDPConn")
	}
	cbc := netbatch.WrapConn(cli, nil)

	const n = 8
	out := make([]netbatch.Message, n)
	for i := range out {
		out[i].Buf = []byte(fmt.Sprintf("burst-%02d", i))
		out[i].N = len(out[i].Buf)
	}
	if _, err := cbc.WriteBatch(out); err != nil {
		t.Fatal(err)
	}
	// Give loopback delivery a beat so the whole burst is queued before the
	// one ReadBatch that should drain it.
	time.Sleep(50 * time.Millisecond)
	ms := netbatch.MakeMessages(n, 2048)
	if err := sbc.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	k, err := sbc.ReadBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if k != n {
		t.Fatalf("one ReadBatch drained %d/%d queued datagrams", k, n)
	}
	if rc := sctr.ReadCalls.Load(); rc > 2 {
		t.Fatalf("%d read syscalls for one queued burst, want ≤ 2", rc)
	}
	back := make([]netbatch.Message, n)
	for i := range back {
		back[i] = netbatch.Message{Buf: ms[i].Bytes(), N: ms[i].N, Addr: ms[i].Addr}
	}
	if _, err := sbc.WriteBatch(back); err != nil {
		t.Fatal(err)
	}
	if wc := sctr.WriteCalls.Load(); wc > 2 {
		t.Fatalf("%d write syscalls for one %d-message batch, want ≤ 2", wc, n)
	}
}

// TestInternedAddrsStable pins the property the tx coalescer keys on: the
// same remote endpoint yields the same net.Addr value across reads.
func TestInternedAddrsStable(t *testing.T) {
	if !netbatch.FastPathAvailable() || netbatch.FallbackForced() {
		t.Skip("interning is a fast-path property")
	}
	srv, cli := pairUDP(t)
	sbc := netbatch.Wrap(srv, nil)
	cbc := netbatch.WrapConn(cli, nil)

	one := []netbatch.Message{{Buf: []byte("a"), N: 1}}
	ms := netbatch.MakeMessages(1, 64)
	var first net.Addr
	for round := 0; round < 3; round++ {
		if _, err := cbc.WriteBatch(one); err != nil {
			t.Fatal(err)
		}
		got := drainN(t, sbc, ms, 1)
		if round == 0 {
			first = got[0].Addr
			continue
		}
		if got[0].Addr != first {
			t.Fatalf("round %d: addr %p != first %p", round, got[0].Addr, first)
		}
	}
}

// TestForcedFallbackEnv proves the env toggle pins the portable path even
// for a *net.UDPConn.
func TestForcedFallbackEnv(t *testing.T) {
	t.Setenv(netbatch.EnvFallback, "fallback")
	srv, cli := pairUDP(t)
	if bc := netbatch.Wrap(srv, nil); bc.FastPath() {
		t.Fatal("Wrap ignored the forced-fallback env")
	}
	if bc := netbatch.WrapConn(cli, nil); bc.FastPath() {
		t.Fatal("WrapConn ignored the forced-fallback env")
	}
	if !netbatch.FallbackForced() {
		t.Fatal("FallbackForced() = false with env set")
	}
	os.Unsetenv(netbatch.EnvFallback)
}

// TestFallbackMatchesFastPath is the seam-level differential: the same
// traffic through WrapFallback and Wrap yields byte-identical messages.
func TestFallbackMatchesFastPath(t *testing.T) {
	run := func(t *testing.T, wrap func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn) [][]byte {
		srv, cli := pairUDP(t)
		sbc := wrap(srv, nil)
		cbc := netbatch.WrapConn(cli, nil)
		const n = 6
		out := make([]netbatch.Message, n)
		for i := range out {
			out[i].Buf = bytes.Repeat([]byte{byte('a' + i)}, 10+i*13)
			out[i].N = len(out[i].Buf)
		}
		if _, err := cbc.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
		ms := netbatch.MakeMessages(4, 2048)
		var flat [][]byte
		for _, m := range drainN(t, sbc, ms, n) {
			flat = append(flat, append([]byte(nil), m.Bytes()...))
		}
		return flat
	}
	fast := run(t, netbatch.Wrap)
	slow := run(t, netbatch.WrapFallback)
	if len(fast) != len(slow) {
		t.Fatalf("fast path delivered %d messages, fallback %d", len(fast), len(slow))
	}
	for i := range fast {
		if !bytes.Equal(fast[i], slow[i]) {
			t.Fatalf("message %d differs: fast %q fallback %q", i, fast[i], slow[i])
		}
	}
}

// TestReadBatchHonorsDeadline proves rc.Read integrates with the poller's
// deadline machinery — what the serve loop's cancellation cadence rides on.
func TestReadBatchHonorsDeadline(t *testing.T) {
	srv, _ := pairUDP(t)
	bc := netbatch.Wrap(srv, nil)
	ms := netbatch.MakeMessages(4, 512)
	if err := bc.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := bc.ReadBatch(ms)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("ReadBatch past deadline = %v, want a timeout net.Error", err)
	}
}

// failAfterConn fails every WriteTo past the first k.
type failAfterConn struct {
	net.PacketConn
	ok int
}

var errRefused = errors.New("refused")

func (c *failAfterConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.ok <= 0 {
		return 0, errRefused
	}
	c.ok--
	return c.PacketConn.WriteTo(p, addr)
}

// TestWriteBatchPartialFailure pins the contract the serve-side flush loop
// depends on: on error, WriteBatch reports how many sent and the failed
// message is ms[n].
func TestWriteBatchPartialFailure(t *testing.T) {
	srv, _ := pairUDP(t)
	dst := srv.LocalAddr()
	inner, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	bc := netbatch.WrapFallback(&failAfterConn{PacketConn: inner, ok: 2}, nil)
	ms := make([]netbatch.Message, 5)
	for i := range ms {
		ms[i] = netbatch.Message{Buf: []byte{byte(i)}, N: 1, Addr: dst}
	}
	n, err := bc.WriteBatch(ms)
	if n != 2 || !errors.Is(err, errRefused) {
		t.Fatalf("WriteBatch = %d, %v; want 2, errRefused", n, err)
	}
}

// TestReadBatchAllocs / TestWriteBatchAllocs are the seam's AllocsPerRun
// guards: steady-state batch I/O must not allocate on either path (the
// first read from a new peer may intern its address; that happens in the
// warm-up round).
func TestReadWriteBatchAllocs(t *testing.T) {
	srv, cli := pairUDP(t)
	sbc := netbatch.Wrap(srv, nil)
	cbc := netbatch.WrapConn(cli, nil)
	out := []netbatch.Message{{Buf: []byte("ping"), N: 4}}
	ms := netbatch.MakeMessages(4, 512)
	if err := sbc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var reply [1]netbatch.Message
	roundTrip := func() {
		if _, err := cbc.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
		n, err := sbc.ReadBatch(ms)
		if err != nil || n == 0 {
			t.Fatalf("ReadBatch = %d, %v", n, err)
		}
		reply[0] = netbatch.Message{Buf: ms[0].Bytes(), N: ms[0].N, Addr: ms[0].Addr}
		if _, err := sbc.WriteBatch(reply[:]); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm up: interning, scratch growth
	allocs := testing.AllocsPerRun(50, roundTrip)
	// The portable fallback rides net.PacketConn.WriteTo, whose sockaddr
	// conversion allocates inside the stdlib; only the batch seam itself is
	// under guard there. The fast path must be allocation-free end to end.
	limit := 0.0
	if !sbc.FastPath() {
		limit = 6.0
	}
	if allocs > limit {
		t.Fatalf("steady-state round trip allocates %.1f/op (limit %.1f)", allocs, limit)
	}
}

// TestOffloadBatchAllocs is the AllocsPerRun guard for the offloaded
// steady state: a grouped WriteBatch (eight same-size messages, one
// segmented header) into a GRO socket's segmented ReadBatch (one slot, Seg
// set), and the grouped reply drained by a plain reader, allocate nothing.
func TestOffloadBatchAllocs(t *testing.T) {
	if !netbatch.FastPathAvailable() || netbatch.FallbackForced() {
		t.Skip("offload is a fast-path property")
	}
	srv, cli := pairUDP(t)
	sbc := netbatch.Wrap(srv, nil)
	cbc := netbatch.WrapConn(cli, nil)
	if err := netbatch.EnableGRO(sbc, netbatch.GROSlot); err != nil {
		t.Fatal(err)
	}
	if gso, gro := netbatch.Offload(sbc); !gso || !gro {
		t.Skipf("kernel offload unavailable (gso %v, gro %v)", gso, gro)
	}
	const n = 8
	out := make([]netbatch.Message, n)
	for i := range out {
		out[i] = netbatch.Message{Buf: bytes.Repeat([]byte{byte(i)}, 64), N: 64}
	}
	ms := netbatch.MakeMessages(4, netbatch.GROSlot)
	back := make([]netbatch.Message, n)
	cms := netbatch.MakeMessages(n, 2048)
	deadline := time.Now().Add(10 * time.Second)
	if err := sbc.SetReadDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	if err := cbc.SetReadDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	var segmented bool
	roundTrip := func() {
		if _, err := cbc.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
		k, err := sbc.ReadBatch(ms)
		if err != nil || k != 1 || ms[0].N != n*64 {
			t.Fatalf("ReadBatch = %d, %v (N %d); want one %d-byte train", k, err, ms[0].N, n*64)
		}
		segmented = ms[0].Seg == 64
		for i := range back {
			back[i] = netbatch.Message{Buf: ms[0].Buf[i*64 : (i+1)*64], N: 64, Addr: ms[0].Addr}
		}
		if _, err := sbc.WriteBatch(back); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < n; {
			k, err := cbc.ReadBatch(cms)
			if err != nil {
				t.Fatal(err)
			}
			got += k
		}
	}
	roundTrip() // warm up: interning, scratch growth
	if !segmented {
		t.Fatalf("GRO read Seg = %d, want 64", ms[0].Seg)
	}
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Fatalf("offloaded round trip allocates %.1f/op, want 0", allocs)
	}
}

// TestReadBatchCountsTruncated: a datagram longer than its slot is counted
// in Truncated and never returned as a message — not handed to a frame walk
// that would misfile the cut as a decode error.
func TestReadBatchCountsTruncated(t *testing.T) {
	if !netbatch.FastPathAvailable() || netbatch.FallbackForced() {
		t.Skip("MSG_TRUNC is read on the fast path")
	}
	srv, cli := pairUDP(t)
	var ctr netbatch.Counters
	sbc := netbatch.Wrap(srv, &ctr)
	cbc := netbatch.WrapConn(cli, nil)
	// 2 KiB slots could truncate any coalesced train: GRO refuses them.
	if err := netbatch.EnableGRO(sbc, 2048); err == nil {
		t.Fatal("EnableGRO accepted 2 KiB slots")
	}
	if _, gro := netbatch.Offload(sbc); gro {
		t.Fatal("GRO live after a refused EnableGRO")
	}
	long := netbatch.Message{Buf: bytes.Repeat([]byte{'x'}, 3000), N: 3000}
	short := netbatch.Message{Buf: []byte("after"), N: 5}
	if _, err := cbc.WriteBatch([]netbatch.Message{long, short}); err != nil {
		t.Fatal(err)
	}
	got := drainN(t, sbc, netbatch.MakeMessages(4, 2048), 1)
	if len(got) != 1 || string(got[0].Bytes()) != "after" {
		t.Fatalf("read %d messages, first %q; want only %q", len(got), got[0].Bytes(), "after")
	}
	if tr, rx := ctr.Truncated.Load(), ctr.RxMsgs.Load(); tr != 1 || rx != 1 {
		t.Fatalf("Truncated = %d, RxMsgs = %d; want 1, 1", tr, rx)
	}
}
