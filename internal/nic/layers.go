// Package nic implements Lightning's network-facing components: Ethernet /
// IPv4 / UDP codecs in the gopacket DecodeFromBytes/SerializeTo idiom, the
// Lightning inference wire protocol, the packet parser that separates
// inference queries from regular traffic (requirement R1), the response
// assembler, the 100 Gbps link serialization model, and the advanced
// smartNIC features of §6.1 (flow tracking and intrusion detection).
package nic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Errors shared by the layer decoders.
var (
	ErrTruncated = errors.New("nic: truncated packet")
	ErrBadProto  = errors.New("nic: unexpected protocol")
)

// EthernetHeaderLen, IPv4HeaderLen and UDPHeaderLen are the fixed header
// sizes the datapath parser assumes (no 802.1Q tags, no IPv4 options).
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20
	UDPHeaderLen      = 8
)

// EtherType values the parser understands.
const (
	EtherTypeIPv4 uint16 = 0x0800
)

// IPProto values.
const (
	IPProtoUDP uint8 = 17
	IPProtoTCP uint8 = 6
)

// MAC is a 48-bit hardware address.
type MAC [6]byte

// String formats the address in canonical colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is the link-layer header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
	payload   []byte
}

// DecodeFromBytes parses the header, retaining a reference to the payload
// (zero-copy, as the datapath does).
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return fmt.Errorf("%w: ethernet needs %d bytes, got %d", ErrTruncated, EthernetHeaderLen, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	e.payload = data[14:]
	return nil
}

// Payload returns the bytes after the header.
func (e *Ethernet) Payload() []byte { return e.payload }

// AppendTo serializes the header followed by payload onto dst.
func (e *Ethernet) AppendTo(dst []byte, payload []byte) []byte {
	dst = append(dst, e.Dst[:]...)
	dst = append(dst, e.Src[:]...)
	dst = binary.BigEndian.AppendUint16(dst, e.EtherType)
	return append(dst, payload...)
}

// IPv4 is the minimal network-layer header the parser reads (no options).
type IPv4 struct {
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
	payload  []byte
}

// DecodeFromBytes parses a 20-byte IPv4 header and verifies its checksum.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return fmt.Errorf("%w: ipv4 needs %d bytes, got %d", ErrTruncated, IPv4HeaderLen, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("%w: ip version %d", ErrBadProto, v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return fmt.Errorf("%w: bad IHL %d", ErrTruncated, ihl)
	}
	if Checksum(data[:ihl]) != 0 {
		return fmt.Errorf("nic: ipv4 checksum mismatch")
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		total = len(data)
	}
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	ip.payload = data[ihl:total]
	return nil
}

// Payload returns the transport segment.
func (ip *IPv4) Payload() []byte { return ip.payload }

// AppendTo serializes the header (with checksum) followed by payload.
func (ip *IPv4) AppendTo(dst []byte, payload []byte) []byte {
	start := len(dst)
	total := IPv4HeaderLen + len(payload)
	dst = append(dst,
		0x45, 0, // version+IHL, DSCP
		byte(total>>8), byte(total),
		0, 0, 0x40, 0, // ID, flags (DF)
		ip.TTL, ip.Protocol,
		0, 0, // checksum placeholder
	)
	src := ip.Src.As4()
	dstIP := ip.Dst.As4()
	dst = append(dst, src[:]...)
	dst = append(dst, dstIP[:]...)
	ck := Checksum(dst[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(dst[start+10:start+12], ck)
	return append(dst, payload...)
}

// UDP is the transport header Lightning queries ride on.
type UDP struct {
	SrcPort, DstPort uint16
	payload          []byte
}

// DecodeFromBytes parses the 8-byte UDP header.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return fmt.Errorf("%w: udp needs %d bytes, got %d", ErrTruncated, UDPHeaderLen, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < UDPHeaderLen || length > len(data) {
		length = len(data)
	}
	u.payload = data[UDPHeaderLen:length]
	return nil
}

// Payload returns the datagram body.
func (u *UDP) Payload() []byte { return u.payload }

// AppendTo serializes the header (checksum 0: legal for UDP/IPv4) and
// payload.
func (u *UDP) AppendTo(dst []byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, u.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, u.DstPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(UDPHeaderLen+len(payload)))
	dst = binary.BigEndian.AppendUint16(dst, 0)
	return append(dst, payload...)
}

// Checksum computes the RFC 1071 Internet checksum over data.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// FiveTuple identifies a transport flow; it is comparable and usable as a
// map key, in the spirit of gopacket's Flow.
type FiveTuple struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// String formats the tuple.
func (f FiveTuple) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%d", f.Src, f.SrcPort, f.Dst, f.DstPort, f.Proto)
}
