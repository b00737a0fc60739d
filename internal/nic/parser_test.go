package nic

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

func queryFrame(t *testing.T, srcIP string, srcPort uint16, modelID uint16) []byte {
	t.Helper()
	frame, err := BuildFrame(
		Ethernet{Dst: testDstMAC, Src: testSrcMAC},
		IPv4{Src: netip.MustParseAddr(srcIP), Dst: netip.MustParseAddr("10.0.0.9")},
		srcPort,
		InferencePort,
		&Message{RequestID: 1, ModelID: modelID, Payload: []byte{1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func regularUDPFrame(srcIP string, srcPort, dstPort uint16) []byte {
	udp := UDP{SrcPort: srcPort, DstPort: dstPort}
	seg := udp.AppendTo(nil, []byte("data"))
	ip := IPv4{TTL: 64, Protocol: IPProtoUDP,
		Src: netip.MustParseAddr(srcIP), Dst: netip.MustParseAddr("10.0.0.9")}
	pkt := ip.AppendTo(nil, seg)
	eth := Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4}
	return eth.AppendTo(nil, pkt)
}

func TestParserRoutesByPort(t *testing.T) {
	p := NewParser()
	if v := p.Parse(queryFrame(t, "10.0.0.1", 5000, 2)).Verdict; v != VerdictInference {
		t.Errorf("inference frame → %v", v)
	}
	if v := p.Parse(regularUDPFrame("10.0.0.1", 5000, 53)).Verdict; v != VerdictForward {
		t.Errorf("regular frame → %v", v)
	}
	if st := p.Stats(); st.Inference != 1 || st.Forwarded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestParserForwardsNonIPv4(t *testing.T) {
	eth := Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: 0x86dd} // IPv6
	out := NewParser().Parse(eth.AppendTo(nil, []byte{1, 2, 3}))
	if out.Verdict != VerdictForward {
		t.Errorf("verdict = %v", out.Verdict)
	}
}

func TestParserDropsMalformed(t *testing.T) {
	p := NewParser()
	if v := p.Parse([]byte{1, 2}).Verdict; v != VerdictDrop {
		t.Errorf("short frame → %v", v)
	}
	// Bad Lightning header on the inference port.
	udp := UDP{SrcPort: 1, DstPort: InferencePort}
	seg := udp.AppendTo(nil, []byte{0, 0, 0})
	ip := IPv4{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP}
	eth := Ethernet{EtherType: EtherTypeIPv4}
	frame := eth.AppendTo(nil, ip.AppendTo(nil, seg))
	if v := p.Parse(frame).Verdict; v != VerdictDrop {
		t.Errorf("bad lightning header → %v", v)
	}
	if st := p.Stats(); st.Malformed != 2 {
		t.Errorf("malformed = %d", st.Malformed)
	}
}

func TestParserTCPForwards(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: IPProtoTCP, Src: testSrcIP, Dst: testDstIP}
	eth := Ethernet{EtherType: EtherTypeIPv4}
	frame := eth.AppendTo(nil, ip.AppendTo(nil, make([]byte, 20)))
	p := NewParser()
	if v := p.Parse(frame).Verdict; v != VerdictForward {
		t.Errorf("tcp → %v", v)
	}
	if len(p.Flows.entries) != 1 {
		t.Error("tcp flow not tracked")
	}
}

func TestFlowTableAccounting(t *testing.T) {
	ft := NewFlowTable(10)
	f := FiveTuple{Src: testSrcIP, Dst: testDstIP, SrcPort: 1, DstPort: 2, Proto: 17}
	ft.Record(f, 100)
	ft.Record(f, 60)
	if st := ft.Record(f, 1500); st.Packets != 3 || st.Bytes != 1660 || st.MinLen != 60 || st.MaxLen != 1500 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFlowTableEviction(t *testing.T) {
	ft := NewFlowTable(2)
	for i := 0; i < 3; i++ {
		ft.Record(FiveTuple{SrcPort: uint16(i)}, 64)
	}
	if len(ft.entries) != 2 {
		t.Errorf("len = %d, want 2", len(ft.entries))
	}
}

func TestIDSPortScanDetection(t *testing.T) {
	p := NewParser()
	p.IDS.MaxPortsPerSrc = 16
	var lastVerdict Verdict
	for port := 0; port < 64; port++ {
		frame := regularUDPFrame("10.9.9.9", 4242, uint16(1000+port))
		lastVerdict = p.Parse(frame).Verdict
	}
	if lastVerdict != VerdictDrop {
		t.Error("scanner not blocked")
	}
	if why := p.IDS.blocked["10.9.9.9"]; why != "port scan" || len(p.IDS.blocked) != 1 {
		t.Errorf("blocklist = %v, want the scanner alone", p.IDS.blocked)
	}
	// A legitimate source remains unaffected.
	if v := p.Parse(regularUDPFrame("10.1.1.1", 4242, 53)).Verdict; v != VerdictForward {
		t.Errorf("legit source → %v", v)
	}
}

func TestIDSBlockedSourceAlsoLosesInference(t *testing.T) {
	p := NewParser()
	p.IDS.MaxPortsPerSrc = 4
	for port := 0; port < 10; port++ {
		p.Parse(regularUDPFrame("10.7.7.7", 1, uint16(2000+port)))
	}
	if v := p.Parse(queryFrame(t, "10.7.7.7", 1, 0)).Verdict; v != VerdictDrop {
		t.Errorf("blocked source inference → %v", v)
	}
}

func TestIDSPacketFlood(t *testing.T) {
	ids := NewIDS()
	ids.MaxPacketsPerSrc = 10
	f := FiveTuple{Src: testSrcIP, DstPort: 80}
	var blocked bool
	for i := 0; i < 20; i++ {
		blocked, _ = ids.Inspect(f, 64)
	}
	if !blocked {
		t.Error("flood not blocked")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictInference.String() != "inference" || VerdictForward.String() != "forward" ||
		VerdictDrop.String() != "drop" || Verdict(9).String() == "" {
		t.Error("verdict names wrong")
	}
}

func TestLinkSerialization(t *testing.T) {
	l := NewLink()
	// 1500-byte frame at 100 Gbps ≈ 121.9 ns with 24B overhead.
	d := l.SerializationTime(1500)
	if d < 120*time.Nanosecond || d > 124*time.Nanosecond {
		t.Errorf("serialization = %v", d)
	}
	l.Transmit(1000)
	l.Transmit(500)
	if l.TxFrames() != 2 || l.TxBytes() != 1500 {
		t.Errorf("tx stats = %d, %d", l.TxFrames(), l.TxBytes())
	}
}

func BenchmarkParserInference(b *testing.B) {
	frame, err := BuildFrame(
		Ethernet{Dst: testDstMAC, Src: testSrcMAC},
		IPv4{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")},
		5000,
		InferencePort, &Message{RequestID: 1, ModelID: 1, Payload: make([]byte, 784)})
	if err != nil {
		b.Fatal(err)
	}
	p := NewParser()
	p.IDS = nil // isolate parse cost
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := p.Parse(frame); out.Verdict != VerdictInference {
			b.Fatal("parse failed")
		}
	}
}

func ExampleParser() {
	frame, _ := BuildFrame(
		Ethernet{},
		IPv4{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")},
		5000,
		InferencePort, &Message{RequestID: 7, ModelID: 1, Payload: []byte{42}})
	p := NewParser()
	out := p.Parse(frame)
	fmt.Println(out.Verdict, out.Msg.ModelID, out.Msg.RequestID)
	// Output: inference 1 7
}
