// Package netbatch is the batched datagram I/O seam under the serve paths:
// ReadBatch/WriteBatch move up to K messages per call so the per-datagram
// syscall cost amortizes across a burst. Wrap picks the best implementation
// for a conn:
//
//   - a conn that implements ReadBatch/WriteBatch natively (fault.StubConn
//     in tests) is used directly — batching semantics stay deterministic;
//   - a *net.UDPConn on 64-bit Linux takes the recvmmsg/sendmmsg fast path:
//     one syscall drains or flushes a whole batch, integrated with the
//     runtime netpoller through syscall.RawConn so read deadlines and
//     cancellation behave exactly like blocking reads;
//   - everything else falls back to a portable loop of single reads/writes,
//     byte-identical in behaviour, just without the syscall amortization.
//
// The fast path also uses the kernel's UDP segmentation offloads: a run of
// same-destination, same-size messages leaves as one segmented send
// (UDP_SEGMENT), and a reader that opts in with EnableGRO receives a
// same-sender train as one coalesced buffer (UDP_GRO) whose datagram
// boundaries Message.Seg restores.
//
// The seam deliberately has no clock and spawns no goroutines: deadlines
// come in as arguments, and all scratch state is owned by the wrapper, so a
// serve loop's batch I/O is allocation-free after warm-up.
package netbatch

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"time"
)

// Message is one datagram in a batch. Buf is caller-owned backing storage
// (its full capacity is offered to reads); N is the valid byte count; Addr
// is the source (after ReadBatch) or destination (for WriteBatch; nil means
// the conn's connected peer). Seg is set by reads only: on a conn opted in
// with EnableGRO, Buf[:N] may hold a coalesced train of datagrams Seg bytes
// each, the last possibly shorter; 0 means one datagram.
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr
	Seg  int
}

// Bytes returns the valid slice of the message.
func (m *Message) Bytes() []byte { return m.Buf[:m.N] }

// Datagrams returns how many datagrams the message holds.
func (m *Message) Datagrams() int {
	if m.Seg <= 0 {
		return 1
	}
	return (m.N + m.Seg - 1) / m.Seg
}

// MakeMessages builds a reusable batch of n messages with bufSize-byte
// buffers — the allocation happens once, at setup, never per read.
func MakeMessages(n, bufSize int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i].Buf = make([]byte, bufSize)
	}
	return ms
}

// Counters receives the seam's I/O accounting: ReadCalls/WriteCalls count
// syscalls (or their stand-ins on non-syscall paths, one per ReadBatch /
// WriteTo), RxMsgs/TxMsgs count datagrams moved — segments of an offloaded
// send or a coalesced read, not kernel headers. syscalls-per-query gates
// divide one by the other. Truncated counts datagrams the fast path received
// cut short by a too-small slot and dropped instead of returning. The struct
// is injected at Wrap time so the owner (a NIC, a load generator) scrapes its
// own atomics without another hop.
type Counters struct {
	ReadCalls  atomic.Uint64
	WriteCalls atomic.Uint64
	RxMsgs     atomic.Uint64
	TxMsgs     atomic.Uint64
	Truncated  atomic.Uint64
}

// discard absorbs accounting for callers that pass a nil Counters.
var discard Counters

// BatchConn is the batched view of a datagram socket.
//
// ReadBatch fills as many messages as are immediately available (at least
// one, blocking for the first) and returns the count; the portable fallback
// always returns at most one, and after EnableGRO one message may hold
// several datagrams (Message.Seg). WriteBatch sends ms in order and returns how
// many sent; on error the failed message is ms[n]. SetReadDeadline bounds
// the next ReadBatch exactly as net.PacketConn's does.
type BatchConn interface {
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
	SetReadDeadline(t time.Time) error
	// FastPath reports whether this conn moves multiple datagrams per
	// syscall (native batch conns report true; the portable fallback false).
	FastPath() bool
}

// batchIO is the native batch interface a conn may implement to take over
// batching itself — fault.StubConn does, so tests drive multi-message
// batches deterministically without a real socket.
type batchIO interface {
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
}

// EnvFallback, when set to "fallback", forces Wrap/WrapConn onto the
// portable single-message path regardless of platform — how CI runs the
// wire suite down both paths from the same binary.
const EnvFallback = "LIGHTNING_NETBATCH"

// FallbackForced reports whether the environment pins the portable path.
func FallbackForced() bool { return os.Getenv(EnvFallback) == "fallback" }

// FastPathAvailable reports whether this platform has the recvmmsg/sendmmsg
// fast path compiled in (64-bit Linux).
func FastPathAvailable() bool { return fastPathAvailable() }

// Wrap returns the best BatchConn for pc: native batch support, the Linux
// multi-message fast path, or the portable fallback. A nil Counters
// discards accounting.
func Wrap(pc net.PacketConn, ctr *Counters) BatchConn {
	if ctr == nil {
		ctr = &discard
	}
	if !FallbackForced() {
		if bio, ok := pc.(batchIO); ok {
			return &nativeConn{bio: bio, setDeadline: pc.SetReadDeadline, ctr: ctr}
		}
		if uc, ok := pc.(*net.UDPConn); ok {
			if mc := newMmsg(uc, ctr); mc != nil {
				return mc
			}
		}
	}
	return &fallbackConn{pc: pc, ctr: ctr}
}

// GROSlot is the smallest read slot EnableGRO accepts: a coalesced train may
// fill a whole 64 KiB UDP payload.
const GROSlot = 1 << 16

// errGROSlot refuses GRO for a reader whose slots could truncate a train.
var errGROSlot = errors.New("netbatch: GRO needs read slots of at least 64 KiB")

// offloader is the segmentation-offload control of the Linux fast path.
type offloader interface {
	enableGRO()
	disableOffload()
	offload() (gso, gro bool)
}

// EnableGRO opts bc's socket into UDP receive offload: one read slot may
// then carry a same-sender datagram train, split back apart by Message.Seg.
// Every slot the caller reads into must hold at least slot bytes, and slot
// must be at least GROSlot. Only the Linux fast path has GRO; elsewhere, or
// on a kernel that refuses UDP_GRO, this is a no-op that Offload reports.
func EnableGRO(bc BatchConn, slot int) error {
	if slot < GROSlot {
		return errGROSlot
	}
	if o, ok := bc.(offloader); ok {
		o.enableGRO()
	}
	return nil
}

// DisableOffload switches both offloads off on bc for good: sends go one
// datagram per header and the socket's GRO is cleared. It is the state a
// kernel refusal leaves behind, and how the differential tests run the fast
// path without offload.
func DisableOffload(bc BatchConn) {
	if o, ok := bc.(offloader); ok {
		o.disableOffload()
	}
}

// Offload reports whether segmented sends (GSO) and coalesced reads (GRO)
// are live on bc, after any sticky fallback.
func Offload(bc BatchConn) (gso, gro bool) {
	if o, ok := bc.(offloader); ok {
		return o.offload()
	}
	return false, false
}

// WrapFallback always returns the portable single-message path — the rail
// the differential tests pin to compare against the fast path. Operators
// select the same path with LIGHTNING_NETBATCH=fallback, which Wrap honours.
func WrapFallback(pc net.PacketConn, ctr *Counters) BatchConn {
	if ctr == nil {
		ctr = &discard
	}
	return &fallbackConn{pc: pc, ctr: ctr}
}

// WrapConn is Wrap for a connected conn (a client socket): WriteBatch
// messages with a nil Addr go to the connected peer.
func WrapConn(c net.Conn, ctr *Counters) BatchConn {
	if ctr == nil {
		ctr = &discard
	}
	if !FallbackForced() {
		if bio, ok := c.(batchIO); ok {
			return &nativeConn{bio: bio, setDeadline: c.SetReadDeadline, ctr: ctr}
		}
		if uc, ok := c.(*net.UDPConn); ok {
			if mc := newMmsg(uc, ctr); mc != nil {
				return mc
			}
		}
	}
	return &connFallback{c: c, ctr: ctr}
}

// WrapConnFallback is WrapFallback for a connected conn.
func WrapConnFallback(c net.Conn, ctr *Counters) BatchConn {
	if ctr == nil {
		ctr = &discard
	}
	return &connFallback{c: c, ctr: ctr}
}

// nativeConn adapts a conn with its own ReadBatch/WriteBatch (a test
// double), layering the syscall accounting the real paths report.
type nativeConn struct {
	bio         batchIO
	setDeadline func(time.Time) error
	ctr         *Counters
}

func (n *nativeConn) FastPath() bool { return true }

func (n *nativeConn) SetReadDeadline(t time.Time) error { return n.setDeadline(t) }

// ReadBatch delegates one batched read, counted as one would-be syscall.
func (n *nativeConn) ReadBatch(ms []Message) (int, error) {
	n.ctr.ReadCalls.Add(1)
	cnt, err := n.bio.ReadBatch(ms)
	if cnt > 0 {
		n.ctr.RxMsgs.Add(uint64(cnt))
	}
	return cnt, err
}

// WriteBatch delegates one batched write, counted as one would-be syscall.
func (n *nativeConn) WriteBatch(ms []Message) (int, error) {
	n.ctr.WriteCalls.Add(1)
	cnt, err := n.bio.WriteBatch(ms)
	if cnt > 0 {
		n.ctr.TxMsgs.Add(uint64(cnt))
	}
	return cnt, err
}

// errNoAddr rejects an unaddressed message on an unconnected conn.
var errNoAddr = errors.New("netbatch: message has no destination address")

// errBadAddr rejects a destination the fast path cannot encode (not a
// *net.UDPAddr); errNoProgress guards the sendmmsg loop against a
// zero-progress success.
var (
	errBadAddr    = errors.New("netbatch: destination is not a UDP address")
	errNoProgress = errors.New("netbatch: batch send made no progress")
)

// fallbackConn is the portable seam over a plain net.PacketConn: one
// datagram per read call, one WriteTo per message. Byte-identical to the
// fast path, minus the amortization.
type fallbackConn struct {
	pc  net.PacketConn
	ctr *Counters
}

func (f *fallbackConn) FastPath() bool { return false }

func (f *fallbackConn) SetReadDeadline(t time.Time) error { return f.pc.SetReadDeadline(t) }

// ReadBatch fills at most one message — a portable PacketConn offers no way
// to drain several datagrams without re-arming deadlines between reads.
func (f *fallbackConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	f.ctr.ReadCalls.Add(1)
	n, addr, err := f.pc.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = addr
	f.ctr.RxMsgs.Add(1)
	return 1, nil
}

// WriteBatch loops single sends; the first failure stops the batch with the
// failed message at ms[n].
func (f *fallbackConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		if ms[i].Addr == nil {
			return i, errNoAddr
		}
		f.ctr.WriteCalls.Add(1)
		if _, err := f.pc.WriteTo(ms[i].Buf[:ms[i].N], ms[i].Addr); err != nil {
			return i, err
		}
		f.ctr.TxMsgs.Add(1)
	}
	return len(ms), nil
}

// connFallback is fallbackConn for a connected net.Conn: Addr is filled
// with the remote address on reads and ignored on writes.
type connFallback struct {
	c   net.Conn
	ctr *Counters
}

func (f *connFallback) FastPath() bool { return false }

func (f *connFallback) SetReadDeadline(t time.Time) error { return f.c.SetReadDeadline(t) }

// ReadBatch fills at most one message from the connected peer.
func (f *connFallback) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	f.ctr.ReadCalls.Add(1)
	n, err := f.c.Read(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = f.c.RemoteAddr()
	f.ctr.RxMsgs.Add(1)
	return 1, nil
}

// WriteBatch loops single sends to the connected peer.
func (f *connFallback) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		f.ctr.WriteCalls.Add(1)
		if _, err := f.c.Write(ms[i].Buf[:ms[i].N]); err != nil {
			return i, err
		}
		f.ctr.TxMsgs.Add(1)
	}
	return len(ms), nil
}
