package nic

import (
	"errors"
	"net/netip"
	"testing"
)

var (
	testSrcMAC = MAC{0x02, 0, 0, 0, 0, 1}
	testDstMAC = MAC{0x02, 0, 0, 0, 0, 2}
	testSrcIP  = netip.MustParseAddr("10.0.0.1")
	testDstIP  = netip.MustParseAddr("10.0.0.2")
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4}
	frame := e.AppendTo(nil, []byte{1, 2, 3})
	var d Ethernet
	if err := d.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if d.Dst != testDstMAC || d.Src != testSrcMAC || d.EtherType != EtherTypeIPv4 {
		t.Errorf("decoded %+v", d)
	}
	if len(d.Payload()) != 3 || d.Payload()[2] != 3 {
		t.Errorf("payload = %v", d.Payload())
	}
}

func TestEthernetTruncated(t *testing.T) {
	var d Ethernet
	if err := d.DecodeFromBytes(make([]byte, 13)); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v", err)
	}
}

func TestMACString(t *testing.T) {
	if s := testSrcMAC.String(); s != "02:00:00:00:00:01" {
		t.Errorf("MAC string = %q", s)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP}
	pkt := ip.AppendTo(nil, []byte{9, 9})
	var d IPv4
	if err := d.DecodeFromBytes(pkt); err != nil {
		t.Fatal(err)
	}
	if d.Src != testSrcIP || d.Dst != testDstIP || d.Protocol != IPProtoUDP || d.TTL != 64 {
		t.Errorf("decoded %+v", d)
	}
	if len(d.Payload()) != 2 {
		t.Errorf("payload = %v", d.Payload())
	}
}

func TestIPv4ChecksumRejected(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP}
	pkt := ip.AppendTo(nil, nil)
	pkt[8] = 13 // corrupt TTL after checksum computed
	var d IPv4
	if err := d.DecodeFromBytes(pkt); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestIPv4Malformed(t *testing.T) {
	var d IPv4
	if err := d.DecodeFromBytes(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 0x65 // version 6
	if err := d.DecodeFromBytes(bad); !errors.Is(err, ErrBadProto) {
		t.Errorf("version: %v", err)
	}
	bad2 := make([]byte, 20)
	bad2[0] = 0x4f // IHL 60 > len
	if err := d.DecodeFromBytes(bad2); !errors.Is(err, ErrTruncated) {
		t.Errorf("ihl: %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 5555, DstPort: InferencePort}
	seg := u.AppendTo(nil, []byte("hello"))
	var d UDP
	if err := d.DecodeFromBytes(seg); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 5555 || d.DstPort != InferencePort {
		t.Errorf("ports = %d, %d", d.SrcPort, d.DstPort)
	}
	if string(d.Payload()) != "hello" {
		t.Errorf("payload = %q", d.Payload())
	}
}

func TestUDPTruncated(t *testing.T) {
	var d UDP
	if err := d.DecodeFromBytes(make([]byte, 7)); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: the checksum of a buffer including its correct
	// checksum is zero.
	ip := IPv4{TTL: 1, Protocol: 6, Src: testSrcIP, Dst: testDstIP}
	hdr := ip.AppendTo(nil, nil)
	if Checksum(hdr[:IPv4HeaderLen]) != 0 {
		t.Error("checksum over checksummed header != 0")
	}
	// Odd-length buffers are padded.
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Errorf("odd checksum = %#04x", Checksum([]byte{0xff}))
	}
}
