package nic

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"
)

// Fuzz targets: the parser and codecs face attacker-controlled bytes at
// 100 Gbps; no input may panic them.

func FuzzMessageDecode(f *testing.F) {
	good, _ := (&Message{RequestID: 1, ModelID: 2, Payload: []byte{1, 2, 3}}).Encode()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0x4c, 0x50, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Decode(data); err == nil {
			// Valid messages must re-encode losslessly.
			out, err := m.Encode()
			if err != nil {
				t.Fatalf("decoded message failed to encode: %v", err)
			}
			var m2 Message
			if err := m2.Decode(out); err != nil {
				t.Fatalf("re-encoded message failed to decode: %v", err)
			}
		}
	})
}

func FuzzParserParse(f *testing.F) {
	frame, _ := BuildFrame(
		Ethernet{Dst: MAC{2, 0, 0, 0, 0, 2}, Src: MAC{2, 0, 0, 0, 0, 1}},
		IPv4{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")},
		5000,
		InferencePort, &Message{RequestID: 1, ModelID: 1, Payload: []byte{9}})
	f.Add(frame)
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewParser()
		out := p.Parse(data)
		switch out.Verdict {
		case VerdictInference, VerdictForward, VerdictDrop:
		default:
			t.Fatalf("invalid verdict %v", out.Verdict)
		}
	})
}

// FuzzReassemblerLifecycle drives Offer with hand-built fragments at
// arbitrary (overlapping, duplicate, out-of-range) offsets, interleaved
// with logical-clock jumps that expire entries mid-reassembly. Invariants:
// never panic, a released query always matches its declared total length,
// the table never exceeds capacity, and a query is only released once full
// byte coverage has actually arrived.
func FuzzReassemblerLifecycle(f *testing.F) {
	f.Add(uint32(1), uint32(0), uint32(64), uint32(32), uint32(32), uint32(128), uint8(0))
	f.Add(uint32(2), uint32(0), uint32(100), uint32(50), uint32(100), uint32(200), uint8(1))
	f.Add(uint32(3), uint32(0), uint32(10), uint32(0), uint32(10), uint32(10), uint8(2))
	f.Fuzz(func(t *testing.T, reqID, lo1, len1, lo2, len2, total uint32, advance uint8) {
		total %= 4096
		len1 %= 512
		len2 %= 512
		now := time.Unix(5000, 0)
		r := NewReassemblerTTL(4, time.Second)
		r.SetClock(func() time.Time { return now })
		build := func(lo, n uint32) *Message {
			payload := make([]byte, FragHeaderLen+int(n))
			binary.BigEndian.PutUint32(payload[0:4], lo)
			binary.BigEndian.PutUint32(payload[4:8], total)
			for i := range payload[FragHeaderLen:] {
				payload[FragHeaderLen+i] = 0xab
			}
			return &Message{Flags: FlagFragment, RequestID: reqID, Payload: payload}
		}
		offer := func(m *Message) {
			q, _, done, err := r.Offer(m)
			if done && err == nil {
				if m.Flags&FlagFragment != 0 && len(q) != int(total) {
					t.Fatalf("released %d bytes, declared total %d", len(q), total)
				}
			}
			if done && q == nil {
				t.Fatal("done with nil query")
			}
		}
		offer(build(lo1, len1))
		// A clock jump between fragments may expire the entry; the second
		// fragment (possibly overlapping or duplicate) then re-opens it.
		now = now.Add(time.Duration(advance) * 100 * time.Millisecond)
		offer(build(lo2, len2))
		offer(build(lo1, len1)) // duplicate delivery
		if r.Pending() > 4 {
			t.Fatalf("pending %d exceeds capacity", r.Pending())
		}
	})
}

func FuzzReassembler(f *testing.F) {
	msgs, _ := Fragment(1, 2, make([]byte, 4000), 512)
	raw, _ := msgs[0].Encode()
	f.Add(raw, uint32(1))
	f.Fuzz(func(t *testing.T, payload []byte, reqID uint32) {
		r := NewReassembler(4)
		m := &Message{Flags: FlagFragment, RequestID: reqID, Payload: payload}
		// Must never panic; errors are fine.
		q, _, done, err := r.Offer(m)
		if err == nil && done && q == nil {
			t.Fatal("done with nil query")
		}
	})
}
