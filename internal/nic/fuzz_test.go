package nic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// Fuzz targets: the codecs face attacker-controlled bytes at 100 Gbps; no
// input may panic them.

func FuzzMessageDecode(f *testing.F) {
	good, _ := (&Message{RequestID: 1, ModelID: 2, Payload: []byte{1, 2, 3}}).AppendEncode(nil)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0x4c, 0x50, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Decode(data); err == nil {
			// Valid messages must re-encode losslessly.
			out, err := m.AppendEncode(nil)
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

// FuzzReassembler offers each generated train twice: to one reassembler as
// the messages a sender builds, each header in Frag and each payload the
// fragment's bytes alone, and to another as the frames a receiver decodes
// from them, each header in the payload. spec is read 11 bytes a fragment —
// offset, total, body length and which of four requests it belongs to — so
// fragments overlap, repeat, overrun, lie about their totals and interleave
// across a two-entry table. The two forms must give identical outcomes on
// every offer and leave identical drops, refusals and pending trains.
func FuzzReassembler(f *testing.F) {
	msgs, _ := Fragment(1, 2, make([]byte, 4000), 512)
	var train []byte
	for _, m := range msgs {
		train = appendFuzzFragment(train, m.Frag.Offset, m.Frag.Total, len(m.Payload), 0)
	}
	f.Add(train, uint32(1))
	f.Add(appendFuzzFragment(appendFuzzFragment(nil, 0, 16, 8, 0), 8, 16, 9, 0), uint32(7))
	f.Add(appendFuzzFragment(nil, 0, MaxQueryBytes+1, 4, 1), uint32(3))
	f.Fuzz(func(t *testing.T, spec []byte, reqID uint32) {
		built, decoded := NewReassembler(2), NewReassembler(2)
		for ; len(spec) >= 11; spec = spec[11:] {
			lo := binary.BigEndian.Uint32(spec[0:4])
			total := binary.BigEndian.Uint32(spec[4:8])
			n := int(binary.BigEndian.Uint16(spec[8:10])) % 2048
			m := &Message{Flags: FlagFragment, RequestID: reqID + uint32(spec[10]%4), ModelID: 2,
				Frag: FragHeader{Offset: lo, Total: total}, Payload: bytes.Repeat([]byte{0xab}, n)}
			frame, err := m.AppendEncode(nil)
			if err != nil {
				t.Fatalf("encoding a %d-byte fragment: %v", n, err)
			}
			var d Message
			if err := d.Decode(frame); err != nil {
				t.Fatalf("decoding a %d-byte fragment: %v", n, err)
			}
			q1, model1, done1, err1 := built.Offer(m)
			q2, model2, done2, err2 := decoded.Offer(&d)
			if done1 != done2 || model1 != model2 || !bytes.Equal(q1, q2) || fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Fatalf("fragment [%d,+%d) of %d: built gives (%d bytes, model %d, done %v, %v), decoded (%d bytes, model %d, done %v, %v)",
					lo, n, total, len(q1), model1, done1, err1, len(q2), model2, done2, err2)
			}
			if done1 {
				if len(q1) != int(total) {
					t.Fatalf("released %d bytes, declared total %d", len(q1), total)
				}
				built.Release(q1)
				decoded.Release(q2)
			}
		}
		if built.Drops() != decoded.Drops() || built.Oversize() != decoded.Oversize() || built.Pending() != decoded.Pending() {
			t.Fatalf("built: drops %d oversize %d pending %d; decoded: drops %d oversize %d pending %d",
				built.Drops(), built.Oversize(), built.Pending(), decoded.Drops(), decoded.Oversize(), decoded.Pending())
		}
	})
}

// appendFuzzFragment appends one FuzzReassembler spec record.
func appendFuzzFragment(spec []byte, lo, total uint32, n int, req byte) []byte {
	spec = binary.BigEndian.AppendUint32(spec, lo)
	spec = binary.BigEndian.AppendUint32(spec, total)
	spec = binary.BigEndian.AppendUint16(spec, uint16(n))
	return append(spec, req)
}
