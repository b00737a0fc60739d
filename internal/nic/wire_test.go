package nic

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	m := Message{Flags: FlagHeaderData, RequestID: 0xdeadbeef, ModelID: 3, Payload: []byte{1, 2, 3, 4}}
	raw, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var d Message
	if err := d.Decode(raw); err != nil {
		t.Fatal(err)
	}
	if d.RequestID != m.RequestID || d.ModelID != m.ModelID || d.Flags != m.Flags {
		t.Errorf("decoded %+v", d)
	}
	if !bytes.Equal(d.Payload, m.Payload) {
		t.Errorf("payload = %v", d.Payload)
	}
}

// Property: AppendEncode then Decode is the identity on every representable
// message (any flags, IDs and payload up to the wire limit).
func TestMessageEncodeDecodeProperty(t *testing.T) {
	f := func(flags uint8, requestID uint32, modelID uint16, payload []byte) bool {
		if len(payload) > 65535-WireHeaderLen {
			payload = payload[:65535-WireHeaderLen]
		}
		m := Message{Flags: flags, RequestID: requestID, ModelID: modelID, Payload: payload}
		raw, err := m.AppendEncode(nil)
		if err != nil {
			return false
		}
		var d Message
		if err := d.Decode(raw); err != nil {
			return false
		}
		return d.Flags == m.Flags &&
			d.RequestID == m.RequestID &&
			d.ModelID == m.ModelID &&
			bytes.Equal(d.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	var d Message
	if err := d.Decode(make([]byte, 5)); err == nil {
		t.Error("short header accepted")
	}
	m := Message{Payload: []byte{1}}
	raw, _ := m.AppendEncode(nil)
	raw[0] = 0 // break magic
	if err := d.Decode(raw); err == nil {
		t.Error("bad magic accepted")
	}
	raw2, _ := m.AppendEncode(nil)
	raw2[2] = 99 // bad version
	if err := d.Decode(raw2); err == nil {
		t.Error("bad version accepted")
	}
	raw3, _ := m.AppendEncode(nil)
	raw3 = raw3[:len(raw3)-1] // truncate payload
	if err := d.Decode(raw3); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestMessageEncodeTooLarge: the length field is 16 bits, so a 65 535-byte
// payload is the largest that encodes, and decodes back whole; a 65 536-byte
// one would carry a length of 0, so both encoders refuse it. A fragment
// header held in the message counts toward the same limit.
func TestMessageEncodeTooLarge(t *testing.T) {
	for _, n := range []int{0xffff, 0x10000} {
		fits := n <= 0xffff
		m := Message{Payload: make([]byte, n)}
		frame, err := m.AppendEncode(nil)
		if (err == nil) != fits {
			t.Fatalf("AppendEncode of a %d-byte payload: err %v", n, err)
		}
		var d Message
		if fits && (d.Decode(frame) != nil || len(d.Payload) != n) {
			t.Fatalf("a %d-byte payload did not decode whole (%d bytes)", n, len(d.Payload))
		}
		frag := Message{Flags: FlagFragment, Frag: FragHeader{Offset: 1, Total: 2}, Payload: make([]byte, n-FragHeaderLen)}
		frame, err = frag.AppendEncode(nil)
		if (err == nil) != fits {
			t.Fatalf("AppendEncode of a %d-byte header and payload: err %v", n, err)
		}
		if fits && (d.Decode(frame) != nil || len(d.Payload) != n || d.Frag != (FragHeader{})) {
			t.Fatalf("a %d-byte header and payload did not decode whole (%d bytes, header %+v)", n, len(d.Payload), d.Frag)
		}
		frame, err = AppendResponseFrame(nil, &Response{Probs: make([]uint8, n-2)})
		if (err == nil) != fits {
			t.Fatalf("AppendResponseFrame of a %d-byte payload: err %v", n, err)
		}
		if fits && (d.Decode(frame) != nil || len(d.Payload) != n) {
			t.Fatalf("a %d-byte response payload did not decode whole (%d bytes)", n, len(d.Payload))
		}
	}
}

// TestDecodeResponseAllocs: a client that walks a datagram's response frames
// with DecodeNext and ParseResponse, keeping each Response local as the
// benchmark client does, allocates nothing per response.
func TestDecodeResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var data []byte
	for id := uint32(1); id <= 4; id++ {
		var err error
		if data, err = AppendResponseFrame(data, &Response{RequestID: id, ModelID: 2, Class: 1, Probs: []uint8{9, 200}}); err != nil {
			t.Fatal(err)
		}
	}
	classes := 0
	if n := testing.AllocsPerRun(100, func() {
		for rest := data; len(rest) > 0; {
			var m Message
			consumed, err := m.DecodeNext(rest)
			if err != nil {
				t.Fatal(err)
			}
			rest = rest[consumed:]
			resp, err := ParseResponse(&m)
			if err != nil || resp.Err {
				t.Fatalf("response %d: err %v", m.RequestID, err)
			}
			classes += int(resp.Class)
		}
	}); n != 0 {
		t.Errorf("decoding four responses allocates %v times, want 0", n)
	}
	if classes == 0 {
		t.Error("no response decoded")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := Response{RequestID: 7, ModelID: 2, Class: 9, Probs: []uint8{0, 10, 245}}
	m := r.ToMessage()
	if !m.IsResponse() || m.IsError() {
		t.Error("flags wrong")
	}
	got, err := ParseResponse(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != 9 || got.RequestID != 7 || len(got.Probs) != 3 || got.Probs[2] != 245 {
		t.Errorf("parsed %+v", got)
	}
}

func TestResponseErrorFlag(t *testing.T) {
	r := Response{Err: true}
	m := r.ToMessage()
	got, err := ParseResponse(m)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Err {
		t.Error("error flag lost")
	}
}

func TestParseResponseRejectsQuery(t *testing.T) {
	if _, err := ParseResponse(&Message{}); err == nil || err.Error() != "nic: message is not a response" {
		t.Errorf("query parsed as response: err %v", err)
	}
	_, err := ParseResponse(&Message{Flags: FlagResponse, Payload: []byte{1}})
	if !errors.Is(err, ErrTruncated) || err.Error() != "nic: truncated packet: response payload" {
		t.Errorf("short response: err %v, want ErrTruncated", err)
	}
}

// TestDecodeNextWalksCoalescedFrames: several concatenated frames in one
// buffer decode in order, each reporting its exact consumed length.
func TestDecodeNextWalksCoalescedFrames(t *testing.T) {
	var buf []byte
	want := []Message{
		{RequestID: 1, ModelID: 7, Payload: []byte{1}},
		{Flags: FlagResponse, RequestID: 2, ModelID: 7, Payload: []byte{0, 0, 9}},
		{RequestID: 3, ModelID: 8, Payload: nil},
	}
	for i := range want {
		var err error
		if buf, err = want[i].AppendEncode(buf); err != nil {
			t.Fatal(err)
		}
	}
	data := buf
	for i := range want {
		var m Message
		consumed, err := m.DecodeNext(data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if consumed != WireHeaderLen+len(want[i].Payload) {
			t.Errorf("frame %d consumed %d, want %d", i, consumed, WireHeaderLen+len(want[i].Payload))
		}
		if m.RequestID != want[i].RequestID || m.ModelID != want[i].ModelID || m.Flags != want[i].Flags {
			t.Errorf("frame %d decoded %+v, want %+v", i, m, want[i])
		}
		if !bytes.Equal(m.Payload, want[i].Payload) {
			t.Errorf("frame %d payload %v, want %v", i, m.Payload, want[i].Payload)
		}
		data = data[consumed:]
	}
	if len(data) != 0 {
		t.Errorf("%d bytes left after the walk", len(data))
	}
}

// TestDecodeNextRejectsTruncatedTail: a frame whose declared payload
// overruns the remaining bytes is an error, never a partial decode.
func TestDecodeNextRejectsTruncatedTail(t *testing.T) {
	m := Message{RequestID: 1, ModelID: 1, Payload: []byte{1, 2, 3, 4}}
	buf, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		var d Message
		if _, err := d.DecodeNext(buf[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded", cut)
		}
	}
}

// TestAppendResponseFrameMatchesToMessage pins the direct single-pass
// response encoding against the two-step ToMessage + AppendEncode path,
// byte for byte, across flag and size variations.
func TestAppendResponseFrameMatchesToMessage(t *testing.T) {
	cases := []Response{
		{RequestID: 1, ModelID: 2, Class: 3, Probs: []uint8{10, 20, 30}},
		{RequestID: 0xffffffff, ModelID: 0xffff, Class: 0xffff, Probs: nil},
		{RequestID: 7, ModelID: 7, Class: 0, Probs: make([]uint8, 300), Err: true},
		{Err: true},
	}
	for i, r := range cases {
		direct, err := AppendResponseFrame(nil, &r)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		twoStep, err := r.ToMessage().AppendEncode(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(direct, twoStep) {
			t.Errorf("case %d: direct %x != two-step %x", i, direct, twoStep)
		}
	}
	// Oversized responses are refused with dst unmodified.
	huge := Response{Probs: make([]uint8, 0x10000)}
	dst := []byte{1, 2, 3}
	out, err := AppendResponseFrame(dst, &huge)
	if err == nil {
		t.Fatal("64 KiB response payload encoded")
	}
	if !bytes.Equal(out, dst) {
		t.Errorf("dst modified on error: %v", out)
	}
}
