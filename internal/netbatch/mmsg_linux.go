//go:build linux && (amd64 || arm64)

package netbatch

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The Linux fast path: recvmmsg/sendmmsg move a whole batch of datagrams
// per syscall. The raw syscalls run inside syscall.RawConn read/write
// closures with MSG_DONTWAIT, so the runtime netpoller still owns blocking:
// an EAGAIN parks the goroutine on the poller exactly like a blocking
// ReadFrom would, SetReadDeadline works unchanged, and a close wakes the
// waiter. Every syscall — including the EAGAIN probes — lands in Counters,
// so syscalls-per-query accounting is honest about the polling cost too.
//
// On top of that, the kernel's UDP segmentation offloads make a datagram
// train one unit of kernel work: WriteBatch sends each run of
// same-destination, same-size messages as one segmented header (GSO), and a
// conn opted in with EnableGRO reads a same-sender train into one slot
// (GRO), whose boundaries Message.Seg carries back to the caller.

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr
// plus the per-message byte count. The explicit trailing pad keeps the
// 8-byte stride the kernel walks; the amd64/arm64 build constraint is what
// makes this layout — and the raw syscall numbers — correct, so 32-bit
// targets take the portable fallback instead of a corrupted header array.
type mmsghdr struct {
	hdr  syscall.Msghdr
	nlen uint32
	_    [4]byte
}

// UDP segmentation offload (linux/udp.h): a segmented send carries its
// segment size in a SOL_UDP/UDP_SEGMENT cmsg (a u16), and a GRO read
// returns the sender's segment size in a SOL_UDP/UDP_GRO cmsg (an int).
const (
	solUDP     = syscall.IPPROTO_UDP
	udpSegment = 103
	udpGRO     = 104

	// maxGSOSegs and maxGSOBytes bound one segmented send: UDP_MAX_SEGMENTS
	// as kernels before 6.x define it, and the largest IPv4 UDP payload.
	maxGSOSegs  = 64
	maxGSOBytes = 65507

	// ctlWords is one header's control room in 8-byte words, CMSG_SPACE of
	// the larger of the two payloads (the 4-byte GRO size).
	ctlWords = (syscall.SizeofCmsghdr + 8) / 8
)

func fastPathAvailable() bool { return true }

// internKey identifies one remote endpoint for rx-address interning.
type internKey struct {
	ip   [16]byte
	zone uint32
	port uint16
	fam  uint16
}

// maxIntern bounds the rx address-intern map; past it the map is cleared
// rather than grown, so a port-scanning flood cannot leak memory. Interned
// addresses are pointer-stable across reads, which both keeps the steady
// state allocation-free and lets tx batchers key per-destination state on
// the Addr value itself.
const maxIntern = 4096

// mmsgScratch is one direction's syscall scaffolding: header, sockaddr and
// control arrays indexed by header, an iovec array indexed by message, and
// (tx) each header's first message — resized to the largest batch seen.
type mmsgScratch struct {
	hdrs   []mmsghdr
	iovecs []syscall.Iovec
	names  []syscall.RawSockaddrInet6
	ctl    []uint64
	first  []int
}

// grow resizes the scratch to hold n messages (cold: runs only when a
// larger batch than ever before arrives).
func (s *mmsgScratch) grow(n int) {
	s.hdrs = make([]mmsghdr, n)
	s.iovecs = make([]syscall.Iovec, n)
	s.names = make([]syscall.RawSockaddrInet6, n)
	s.ctl = make([]uint64, n*ctlWords)
	s.first = make([]int, n+1)
}

// mmsgConn is the recvmmsg/sendmmsg BatchConn over a *net.UDPConn. Each
// direction is serialized by its own mutex (the scratch arrays are shared
// state); rd/wr fields pass batch parameters into the stored RawConn
// closures, which cannot take arguments.
type mmsgConn struct {
	rc          syscall.RawConn
	setDeadline func(time.Time) error
	ctr         *Counters

	// gsoOff is sticky: set when the kernel lacks UDP_SEGMENT or refuses a
	// segmented send. groOn records UDP_GRO set through this conn.
	gsoOff atomic.Bool
	groOn  atomic.Bool

	rdMu   sync.Mutex
	rd     mmsgScratch
	rdFn   func(fd uintptr) bool
	rdWant int
	rdN    int
	rdErr  syscall.Errno
	intern map[internKey]net.Addr

	wrMu  sync.Mutex
	wr    mmsgScratch
	wrFn  func(fd uintptr) bool
	wrOff int
	wrLen int
	wrN   int
	wrErr syscall.Errno
}

// newMmsg builds the fast path over uc, or nil if the raw conn is not
// available (the caller falls back).
func newMmsg(uc *net.UDPConn, ctr *Counters) BatchConn {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	c := &mmsgConn{
		rc:          rc,
		setDeadline: uc.SetReadDeadline,
		ctr:         ctr,
		intern:      make(map[internKey]net.Addr),
	}
	// A kernel without UDP_SEGMENT (before 4.18) ignores the cmsg and sends
	// the run as one concatenated datagram, so GSO is off before the first
	// send there, not after a refusal that never comes.
	probe := func(fd int) error {
		_, err := syscall.GetsockoptInt(fd, solUDP, udpSegment)
		return err
	}
	if !c.sockopt(probe) {
		c.gsoOff.Store(true)
	}
	// The closures are bound once here so the hot ReadBatch/WriteBatch
	// bodies never construct a func value per call.
	c.rdFn = c.recvmmsg
	c.wrFn = c.sendmmsg
	return c
}

func (c *mmsgConn) FastPath() bool { return true }

func (c *mmsgConn) SetReadDeadline(t time.Time) error { return c.setDeadline(t) }

// sockopt runs one socket-option call on the conn's fd and reports success.
func (c *mmsgConn) sockopt(f func(fd int) error) bool {
	var serr error
	if err := c.rc.Control(func(fd uintptr) { serr = f(int(fd)) }); err != nil {
		return false
	}
	return serr == nil
}

func (c *mmsgConn) enableGRO() {
	if c.sockopt(func(fd int) error { return syscall.SetsockoptInt(fd, solUDP, udpGRO, 1) }) {
		c.groOn.Store(true)
	}
}

func (c *mmsgConn) disableOffload() {
	c.gsoOff.Store(true)
	if c.groOn.Swap(false) {
		c.sockopt(func(fd int) error { return syscall.SetsockoptInt(fd, solUDP, udpGRO, 0) })
	}
}

func (c *mmsgConn) offload() (gso, gro bool) { return !c.gsoOff.Load(), c.groOn.Load() }

// recvmmsg is the RawConn read closure: one recvmmsg syscall per poll
// wake-up, retried through EINTR; EAGAIN returns false to park on the
// netpoller.
func (c *mmsgConn) recvmmsg(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.rd.hdrs[0])), uintptr(c.rdWant),
			syscall.MSG_DONTWAIT, 0, 0)
		c.ctr.ReadCalls.Add(1)
		switch e {
		case 0:
			c.rdN = int(n)
			c.rdErr = 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			c.rdN = 0
			c.rdErr = e
			return true
		}
	}
}

// ReadBatch drains up to len(ms) slots in one syscall, blocking on the
// netpoller for the first. Message buffers must be non-empty. A datagram
// longer than its slot is counted in Counters.Truncated and never returned;
// if a read returns nothing else, ReadBatch waits for the next datagram.
func (c *mmsgConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.rdMu.Lock()
	defer c.rdMu.Unlock()
	if len(ms) > len(c.rd.hdrs) {
		c.rd.grow(len(ms))
	}
	for {
		for i := range ms {
			c.rd.iovecs[i].Base = &ms[i].Buf[0]
			c.rd.iovecs[i].Len = uint64(len(ms[i].Buf))
			h := &c.rd.hdrs[i]
			h.hdr.Name = (*byte)(unsafe.Pointer(&c.rd.names[i]))
			h.hdr.Namelen = uint32(unsafe.Sizeof(c.rd.names[i]))
			h.hdr.Iov = &c.rd.iovecs[i]
			h.hdr.Iovlen = 1
			// Room for a UDP_GRO cmsg on every read: a coalesced train is
			// never mistaken for one datagram, whoever set GRO on the socket.
			h.hdr.Control = (*byte)(unsafe.Pointer(&c.rd.ctl[i*ctlWords]))
			h.hdr.Controllen = ctlWords * 8
			h.nlen = 0
		}
		c.rdWant = len(ms)
		if err := c.rc.Read(c.rdFn); err != nil {
			return 0, err
		}
		if c.rdErr != 0 {
			return 0, errnoErr("recvmmsg", c.rdErr)
		}
		if n := c.collect(ms); n > 0 {
			return n, nil
		}
	}
}

// collect fills the messages of a finished recvmmsg. Truncated slots are
// counted and dropped, the rest compacted to the front by swapping slots,
// so every caller buffer stays in ms. Caller holds rdMu.
func (c *mmsgConn) collect(ms []Message) int {
	w, dgrams := 0, 0
	for i := 0; i < c.rdN; i++ {
		h := &c.rd.hdrs[i]
		if h.hdr.Flags&syscall.MSG_TRUNC != 0 {
			c.ctr.Truncated.Add(1)
			continue
		}
		if w != i {
			ms[w], ms[i] = ms[i], ms[w]
		}
		m := &ms[w]
		m.N = int(h.nlen)
		m.Addr = c.addrOf(&c.rd.names[i], h.hdr.Namelen)
		m.Seg = c.segOf(i, m.N)
		dgrams += m.Datagrams()
		w++
	}
	c.ctr.RxMsgs.Add(uint64(dgrams))
	return w
}

// segOf reads rx header i's UDP_GRO cmsg: the sender's segment size when
// the kernel returned a coalesced train of n bytes, else 0.
func (c *mmsgConn) segOf(i, n int) int {
	if c.rd.hdrs[i].hdr.Controllen < syscall.SizeofCmsghdr+4 {
		return 0
	}
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&c.rd.ctl[i*ctlWords]))
	if cm.Level != solUDP || cm.Type != udpGRO {
		return 0
	}
	seg := int(*(*int32)(unsafe.Add(unsafe.Pointer(cm), syscall.SizeofCmsghdr)))
	if seg <= 0 || n <= seg {
		return 0
	}
	return seg
}

// addrOf interns one raw source sockaddr (caller holds rdMu).
func (c *mmsgConn) addrOf(ra *syscall.RawSockaddrInet6, nlen uint32) net.Addr {
	var k internKey
	k.fam = ra.Family
	// Port sits in network byte order in the raw sockaddr; reading it
	// bytewise is endian-correct everywhere.
	po := (*[2]byte)(unsafe.Pointer(&ra.Port))
	k.port = uint16(po[0])<<8 | uint16(po[1])
	switch {
	case ra.Family == syscall.AF_INET && nlen >= syscall.SizeofSockaddrInet4:
		r4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(ra))
		copy(k.ip[:4], r4.Addr[:])
	case ra.Family == syscall.AF_INET6 && nlen >= syscall.SizeofSockaddrInet6:
		k.ip = ra.Addr
		k.zone = ra.Scope_id
	}
	if a, ok := c.intern[k]; ok {
		return a
	}
	return c.internMiss(k)
}

// internMiss materializes and caches a UDPAddr for a new endpoint (cold:
// once per remote peer, or per flood-triggered reset).
func (c *mmsgConn) internMiss(k internKey) net.Addr {
	ua := &net.UDPAddr{Port: int(k.port)}
	if k.fam == syscall.AF_INET {
		ua.IP = append(net.IP(nil), k.ip[:4]...)
	} else {
		ua.IP = append(net.IP(nil), k.ip[:]...)
	}
	if len(c.intern) >= maxIntern {
		clear(c.intern)
	}
	c.intern[k] = ua
	return ua
}

// sendmmsg is the RawConn write closure: one sendmmsg syscall per poll
// wake-up over the not-yet-sent tail of the batch.
func (c *mmsgConn) sendmmsg(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&c.wr.hdrs[c.wrOff])), uintptr(c.wrLen),
			syscall.MSG_DONTWAIT, 0, 0)
		c.ctr.WriteCalls.Add(1)
		switch e {
		case 0:
			c.wrN = int(n)
			c.wrErr = 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			c.wrN = 0
			c.wrErr = e
			return true
		}
	}
}

// emptyByte anchors the iovec of a zero-length datagram.
var emptyByte byte

// WriteBatch flushes ms in one sendmmsg (looping only on partial sends). A
// nil Addr sends to the connected peer; an Addr that is not a *net.UDPAddr
// stops the batch before it with errBadAddr after flushing the prefix. If
// the kernel refuses a segmented header, GSO goes off for good and the
// unsent messages go again one per header.
func (c *mmsgConn) WriteBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	if len(ms) > len(c.wr.hdrs) {
		c.wr.grow(len(ms))
	}
	nh, badAddr := c.pack(ms, 0)
	for h := 0; h < nh; {
		c.wrOff = h
		c.wrLen = nh - h
		if err := c.rc.Write(c.wrFn); err != nil {
			return c.wr.first[h], err
		}
		if c.wrErr != 0 {
			if c.wr.hdrs[h].hdr.Control != nil && gsoRefused(c.wrErr) {
				c.gsoOff.Store(true)
				nh, badAddr = c.pack(ms, c.wr.first[h])
				h = 0
				continue
			}
			return c.wr.first[h], errnoErr("sendmmsg", c.wrErr)
		}
		if c.wrN <= 0 {
			// A zero-progress success would loop forever; surface it.
			return c.wr.first[h], errNoProgress
		}
		c.ctr.TxMsgs.Add(uint64(c.wr.first[h+c.wrN] - c.wr.first[h]))
		h += c.wrN
	}
	if badAddr {
		return c.wr.first[nh], errBadAddr
	}
	return c.wr.first[nh], nil
}

// gsoRefused reports the errnos with which a kernel refuses a segmented
// send it cannot offload (no checksum offload, an xfrm path, no support).
func gsoRefused(e syscall.Errno) bool {
	return e == syscall.EIO || e == syscall.EINVAL || e == syscall.ENOPROTOOPT
}

// pack lays ms[from:] out as tx headers from header 0 and returns how many.
// A header carries one message or, while GSO is live, a run of messages to
// one destination (pointer-equal Addr, or both nil) whose sizes are equal
// but for a shorter, non-empty last — one iovec each under a UDP_SEGMENT
// cmsg, at most maxGSOSegs segments and maxGSOBytes bytes. first[h] is
// header h's first message and first[nh] the end; a destination
// putSockaddr cannot encode ends the layout before its message.
func (c *mmsgConn) pack(ms []Message, from int) (nh int, badAddr bool) {
	s := &c.wr
	gso := !c.gsoOff.Load()
	i := from
	for i < len(ms) {
		h := &s.hdrs[nh].hdr
		if ms[i].Addr == nil {
			h.Name = nil
			h.Namelen = 0
		} else {
			nl, ok := putSockaddr(&s.names[nh], ms[i].Addr)
			if !ok {
				badAddr = true
				break
			}
			h.Name = (*byte)(unsafe.Pointer(&s.names[nh]))
			h.Namelen = nl
		}
		s.setIovec(i, &ms[i])
		h.Control = nil
		h.Controllen = 0
		j := i + 1
		if seg := ms[i].N; gso && seg > 0 {
			total := seg
			for j < len(ms) && j-i < maxGSOSegs && ms[j].Addr == ms[i].Addr {
				n := ms[j].N
				if n == 0 || n > seg || total+n > maxGSOBytes {
					break
				}
				s.setIovec(j, &ms[j])
				total += n
				j++
				if n < seg {
					break
				}
			}
			if j-i > 1 {
				s.segCmsg(nh, seg)
			}
		}
		h.Iov = &s.iovecs[i]
		h.Iovlen = uint64(j - i)
		s.hdrs[nh].nlen = 0
		s.first[nh] = i
		nh++
		i = j
	}
	s.first[nh] = i
	return nh, badAddr
}

// setIovec points iovec i at message m's valid bytes.
func (s *mmsgScratch) setIovec(i int, m *Message) {
	if m.N > 0 {
		s.iovecs[i].Base = &m.Buf[0]
	} else {
		s.iovecs[i].Base = &emptyByte
	}
	s.iovecs[i].Len = uint64(m.N)
}

// segCmsg attaches a UDP_SEGMENT cmsg of segment size seg to tx header h.
func (s *mmsgScratch) segCmsg(h, seg int) {
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&s.ctl[h*ctlWords]))
	cm.Level = solUDP
	cm.Type = udpSegment
	cm.SetLen(syscall.SizeofCmsghdr + 2)
	*(*uint16)(unsafe.Add(unsafe.Pointer(cm), syscall.SizeofCmsghdr)) = uint16(seg)
	s.hdrs[h].hdr.Control = (*byte)(unsafe.Pointer(cm))
	s.hdrs[h].hdr.Controllen = ctlWords * 8
}

// putSockaddr encodes a *net.UDPAddr into a raw sockaddr, returning its
// length. Non-UDP addrs report false (the fast path only ever sees UDP
// peers; anything else is a caller bug surfaced as errBadAddr).
func putSockaddr(ra *syscall.RawSockaddrInet6, addr net.Addr) (uint32, bool) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, false
	}
	if ip4 := ua.IP.To4(); ip4 != nil {
		r4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(ra))
		r4.Family = syscall.AF_INET
		po := (*[2]byte)(unsafe.Pointer(&r4.Port))
		po[0] = byte(ua.Port >> 8)
		po[1] = byte(ua.Port)
		copy(r4.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, true
	}
	if len(ua.IP) != net.IPv6len {
		return 0, false
	}
	ra.Family = syscall.AF_INET6
	po := (*[2]byte)(unsafe.Pointer(&ra.Port))
	po[0] = byte(ua.Port >> 8)
	po[1] = byte(ua.Port)
	copy(ra.Addr[:], ua.IP)
	ra.Scope_id = 0
	return syscall.SizeofSockaddrInet6, true
}

// errnoErr wraps a raw errno. It runs only on the failure path and may
// allocate.
func errnoErr(op string, e syscall.Errno) error {
	return os.NewSyscallError(op, e)
}
