package nic

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Verdict classifies what the packet parser decided about a frame (§4
// step 1 and §6.1 "Packet processing").
type Verdict int

// Parser verdicts.
const (
	// VerdictInference routes the frame into the compute datapath.
	VerdictInference Verdict = iota
	// VerdictForward punts a regular packet to the local host over PCIe.
	VerdictForward
	// VerdictDrop discards the frame (IDS block or malformed input).
	VerdictDrop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictInference:
		return "inference"
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Parsed is the parser's output for one frame.
type Parsed struct {
	Verdict Verdict
	// Flow is the transport five-tuple (valid for IPv4 transport frames).
	Flow FiveTuple
	// Msg is the decoded inference query when Verdict is
	// VerdictInference.
	Msg Message
	// Reason explains drops.
	Reason string
}

// ParserStats is a snapshot of the parser's outcome counters.
type ParserStats struct {
	Frames, Inference, Forwarded, Dropped uint64
	Malformed                             uint64
}

// Parser is Lightning's packet parser: it identifies inference queries from
// regular packets by UDP destination port, extracts the model ID and user
// data, and punts everything else toward the host. An optional IDS inspects
// every frame first (§6.1: "advanced smartNIC features, such as intrusion
// detection").
//
// Parse is safe for concurrent use: the hardware parser serves every RX
// queue at line rate, so the model keeps per-outcome counters atomic and
// locks the flow table and IDS internally.
type Parser struct {
	// Port is the inference destination port (InferencePort by default).
	Port uint16
	// IDS, when set, can veto frames before any other processing.
	IDS *IDS
	// Flows, when set, tracks per-flow statistics.
	Flows *FlowTable

	frames, inference, forwarded, dropped, malformed atomic.Uint64
}

// NewParser returns a parser with the default port and the standard IDS and
// flow table attached.
func NewParser() *Parser {
	return &Parser{Port: InferencePort, IDS: NewIDS(), Flows: NewFlowTable(65536)}
}

// Stats returns a snapshot of the parser's outcome counters.
func (p *Parser) Stats() ParserStats {
	return ParserStats{
		Frames:    p.frames.Load(),
		Inference: p.inference.Load(),
		Forwarded: p.forwarded.Load(),
		Dropped:   p.dropped.Load(),
		Malformed: p.malformed.Load(),
	}
}

// Parse inspects one Ethernet frame and classifies it.
func (p *Parser) Parse(frame []byte) Parsed {
	p.frames.Add(1)
	var eth Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		p.malformed.Add(1)
		p.dropped.Add(1)
		return Parsed{Verdict: VerdictDrop, Reason: err.Error()}
	}
	if eth.EtherType != EtherTypeIPv4 {
		p.forwarded.Add(1)
		return Parsed{Verdict: VerdictForward, Reason: "non-IPv4"}
	}
	var ip IPv4
	if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
		p.malformed.Add(1)
		p.dropped.Add(1)
		return Parsed{Verdict: VerdictDrop, Reason: err.Error()}
	}

	out := Parsed{Flow: FiveTuple{Src: ip.Src, Dst: ip.Dst, Proto: ip.Protocol}}
	if ip.Protocol == IPProtoUDP {
		var udp UDP
		if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
			p.malformed.Add(1)
			p.dropped.Add(1)
			return Parsed{Verdict: VerdictDrop, Reason: err.Error()}
		}
		out.Flow.SrcPort, out.Flow.DstPort = udp.SrcPort, udp.DstPort

		if p.Flows != nil {
			p.Flows.Record(out.Flow, len(frame))
		}
		if p.IDS != nil {
			if blocked, why := p.IDS.Inspect(out.Flow, len(frame)); blocked {
				p.dropped.Add(1)
				out.Verdict = VerdictDrop
				out.Reason = why
				return out
			}
		}
		if udp.DstPort == p.Port {
			if err := out.Msg.Decode(udp.Payload()); err != nil {
				p.malformed.Add(1)
				p.dropped.Add(1)
				out.Verdict = VerdictDrop
				out.Reason = err.Error()
				return out
			}
			p.inference.Add(1)
			out.Verdict = VerdictInference
			return out
		}
	} else if p.Flows != nil {
		p.Flows.Record(out.Flow, len(frame))
	}
	p.forwarded.Add(1)
	out.Verdict = VerdictForward
	return out
}

// FlowStats aggregates one flow's traffic, the features the traffic
// classification DNN consumes.
type FlowStats struct {
	Packets uint64
	Bytes   uint64
	MinLen  int
	MaxLen  int
}

// FlowTable tracks per-five-tuple statistics with a bounded entry count.
// All methods are safe for concurrent use.
type FlowTable struct {
	mu      sync.Mutex
	cap     int
	entries map[FiveTuple]*FlowStats
}

// NewFlowTable allocates a table bounded to capacity flows.
func NewFlowTable(capacity int) *FlowTable {
	return &FlowTable{cap: capacity, entries: make(map[FiveTuple]*FlowStats)}
}

// Record accounts one frame to its flow and returns a snapshot of the
// flow's statistics after the update.
func (t *FlowTable) Record(f FiveTuple, frameLen int) FlowStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.entries[f]
	if !ok {
		if len(t.entries) >= t.cap {
			// Bounded table: discard an arbitrary entry, as a hardware
			// hash table would on collision.
			for victim := range t.entries {
				delete(t.entries, victim)
				break
			}
		}
		st = &FlowStats{MinLen: frameLen, MaxLen: frameLen}
		t.entries[f] = st
	}
	st.Packets++
	st.Bytes += uint64(frameLen)
	if frameLen < st.MinLen {
		st.MinLen = frameLen
	}
	if frameLen > st.MaxLen {
		st.MaxLen = frameLen
	}
	return *st
}

// IDS is a per-source-address rate-based intrusion detector: a source that
// touches too many distinct destination ports (a scan) or exceeds a packet
// budget is blocked. It stands in for the prototype's intrusion-detection
// offload. All methods are safe for concurrent use.
type IDS struct {
	// MaxPortsPerSrc blocks sources scanning more destination ports.
	MaxPortsPerSrc int
	// MaxPacketsPerSrc blocks sources exceeding this packet budget.
	MaxPacketsPerSrc uint64

	mu      sync.Mutex
	ports   map[string]map[uint16]struct{}
	packets map[string]uint64
	blocked map[string]string
}

// NewIDS returns an IDS with scan-detection defaults.
func NewIDS() *IDS {
	return &IDS{
		MaxPortsPerSrc:   128,
		MaxPacketsPerSrc: 1 << 20,
		ports:            make(map[string]map[uint16]struct{}),
		packets:          make(map[string]uint64),
		blocked:          make(map[string]string),
	}
}

// Inspect examines one frame's flow; it reports whether the frame must be
// dropped and why.
func (s *IDS) Inspect(f FiveTuple, frameLen int) (blocked bool, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := f.Src.String()
	if why, bad := s.blocked[src]; bad {
		return true, why
	}
	s.packets[src]++
	pp := s.ports[src]
	if pp == nil {
		pp = make(map[uint16]struct{})
		s.ports[src] = pp
	}
	pp[f.DstPort] = struct{}{}
	switch {
	case len(pp) > s.MaxPortsPerSrc:
		s.blocked[src] = "port scan"
		return true, "port scan"
	case s.packets[src] > s.MaxPacketsPerSrc:
		s.blocked[src] = "packet flood"
		return true, "packet flood"
	}
	return false, ""
}
