package nic

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The Lightning wire protocol. Inference queries arrive in UDP datagrams on
// InferencePort; the parser identifies them "based on the destination port
// number field in the incoming packet header" and extracts "the DNN model ID
// and corresponding user data" (§4).
//
// Layout (big-endian):
//
//	offset size field
//	0      2    magic 0x4C50 ("LP")
//	2      1    version (1)
//	3      1    flags (bit0 response, bit1 error, bit2 header-data)
//	4      4    request id
//	8      2    model id
//	10     2    payload length
//	12     n    payload (query data, or response result)
const (
	// InferencePort is the UDP destination port identifying inference
	// queries (4055 after the prototype's 4.055 GHz).
	InferencePort = 4055

	// WireMagic marks Lightning datagrams.
	WireMagic uint16 = 0x4C50

	// WireVersion is the protocol version this implementation speaks.
	WireVersion = 1

	// WireHeaderLen is the fixed header size.
	WireHeaderLen = 12
)

// Wire header flags.
const (
	FlagResponse   = 1 << 0
	FlagError      = 1 << 1
	FlagHeaderData = 1 << 2 // query data derived from packet headers, not payload
	// FlagFragment (1 << 3) lives in fragment.go with the fragment layout.

	// FlagControl marks a control-plane message: the payload is an op byte
	// followed by an op-specific body instead of inference input. The cluster
	// coordinator uses control messages to install model partitions on remote
	// NICs over the same socket queries ride (§6.1's PCIe update path, lifted
	// onto the wire). Control messages fragment like large queries do; the
	// flag survives on every fragment and is read off the completing one.
	FlagControl = 1 << 4
)

// Control-message op codes (first payload byte of a FlagControl message).
const (
	// CtrlInstallModel carries a serialized quantized network (nn's "LQN1"
	// format) to register — or atomically replace — under the message's model
	// ID. The NIC acks with a plain Response; the Err flag reports rejection
	// (installs disabled, malformed body).
	CtrlInstallModel = 1
)

// BuildControlMessage packs a control op and body into a wire message.
func BuildControlMessage(requestID uint32, modelID uint16, op byte, body []byte) *Message {
	payload := make([]byte, 1+len(body))
	payload[0] = op
	copy(payload[1:], body)
	return &Message{Flags: FlagControl, RequestID: requestID, ModelID: modelID, Payload: payload}
}

// ParseControl splits a control payload into its op byte and body. It takes
// the raw payload rather than a Message because control frames may arrive
// fragmented: the caller hands it the reassembled query bytes.
func ParseControl(payload []byte) (op byte, body []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, fmt.Errorf("%w: control payload", ErrTruncated)
	}
	return payload[0], payload[1:], nil
}

// Message is a Lightning request or response.
type Message struct {
	Flags     uint8
	RequestID uint32
	ModelID   uint16
	// Frag, when its Total is set, is a fragment header the encoders write
	// ahead of Payload and count in the length field: the frame is the one
	// a payload beginning with the header makes. Fragment sets it; Decode
	// leaves a received fragment's header in its payload and Frag zero.
	Frag    FragHeader
	Payload []byte
}

// FragHeader is a fragment header held in a Message (see the layout in
// fragment.go). The zero value is no header: a fragment's total is never 0.
type FragHeader struct {
	Offset uint32 // byte offset of the fragment within the query
	Total  uint32 // total query length
}

// payloadLen is the length field m encodes with: its payload and, when set,
// the fragment header ahead of it.
func (m *Message) payloadLen() int {
	if m.Frag.Total != 0 {
		return FragHeaderLen + len(m.Payload)
	}
	return len(m.Payload)
}

// IsResponse reports whether the message is a response.
func (m *Message) IsResponse() bool { return m.Flags&FlagResponse != 0 }

// IsError reports whether a response carries an error indication.
func (m *Message) IsError() bool { return m.Flags&FlagError != 0 }

// Decode parses a Lightning message from a UDP payload.
func (m *Message) Decode(data []byte) error {
	if len(data) < WireHeaderLen {
		return fmt.Errorf("%w: lightning header needs %d bytes, got %d", ErrTruncated, WireHeaderLen, len(data))
	}
	if magic := binary.BigEndian.Uint16(data[0:2]); magic != WireMagic {
		return fmt.Errorf("nic: bad magic %#04x", magic)
	}
	if v := data[2]; v != WireVersion {
		return fmt.Errorf("nic: unsupported wire version %d", v)
	}
	m.Flags = data[3]
	m.Frag = FragHeader{}
	m.RequestID = binary.BigEndian.Uint32(data[4:8])
	m.ModelID = binary.BigEndian.Uint16(data[8:10])
	n := int(binary.BigEndian.Uint16(data[10:12]))
	if len(data) < WireHeaderLen+n {
		return fmt.Errorf("%w: payload wants %d bytes, %d available", ErrTruncated, n, len(data)-WireHeaderLen)
	}
	m.Payload = data[WireHeaderLen : WireHeaderLen+n]
	return nil
}

// DecodeNext parses the first Lightning frame from data — which may carry
// several concatenated frames (wire-level frame coalescing: a sender packs
// small queries into one datagram) — and returns how many bytes the frame
// consumed, so the caller can walk the remainder. The length-prefix
// validation is strict: a frame whose declared payload overruns the
// remaining bytes is an error, never a partial decode.
func (m *Message) DecodeNext(data []byte) (int, error) {
	if err := m.Decode(data); err != nil {
		return 0, err
	}
	return WireHeaderLen + len(m.Payload), nil
}

// Encode serializes the message.
func (m *Message) Encode() ([]byte, error) {
	out, err := m.AppendEncode(make([]byte, 0, WireHeaderLen+m.payloadLen()))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendEncode serializes the message into dst's spare capacity and returns
// the extended slice — the allocation-free seam the serve path's pooled tx
// frame buffers use. dst is returned unmodified on error.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	n := m.payloadLen()
	if n > 0xffff {
		return dst, fmt.Errorf("nic: payload %d exceeds 64 KiB", n)
	}
	dst = binary.BigEndian.AppendUint16(dst, WireMagic)
	dst = append(dst, WireVersion, m.Flags)
	dst = binary.BigEndian.AppendUint32(dst, m.RequestID)
	dst = binary.BigEndian.AppendUint16(dst, m.ModelID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	if m.Frag.Total != 0 {
		dst = binary.BigEndian.AppendUint32(dst, m.Frag.Offset)
		dst = binary.BigEndian.AppendUint32(dst, m.Frag.Total)
	}
	return append(dst, m.Payload...), nil
}

// Response carries an inference result back to the requester. The payload
// layout is: 2-byte predicted class, then one probability code per class.
type Response struct {
	RequestID uint32
	ModelID   uint16
	Class     uint16
	Probs     []uint8
	Err       bool
}

// ToMessage packs the response into a wire message.
func (r *Response) ToMessage() *Message {
	flags := uint8(FlagResponse)
	if r.Err {
		flags |= FlagError
	}
	payload := make([]byte, 2+len(r.Probs))
	binary.BigEndian.PutUint16(payload[0:2], r.Class)
	copy(payload[2:], r.Probs)
	return &Message{Flags: flags, RequestID: r.RequestID, ModelID: r.ModelID, Payload: payload}
}

// AppendResponseFrame encodes r as a complete wire frame into dst's spare
// capacity — ToMessage followed by AppendEncode, without materializing the
// intermediate Message or its payload copy. The serve path's tx batcher
// encodes every response with it; equivalence with the two-step encoding is
// pinned by TestAppendResponseFrameMatchesToMessage. Like AppendEncode it
// appends; growth amortizes into the caller's pooled buffer.
func AppendResponseFrame(dst []byte, r *Response) ([]byte, error) {
	plen := 2 + len(r.Probs)
	if plen > 0xffff {
		return dst, errResponseTooLarge
	}
	flags := uint8(FlagResponse)
	if r.Err {
		flags |= FlagError
	}
	dst = binary.BigEndian.AppendUint16(dst, WireMagic)
	dst = append(dst, WireVersion, flags)
	dst = binary.BigEndian.AppendUint32(dst, r.RequestID)
	dst = binary.BigEndian.AppendUint16(dst, r.ModelID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(plen))
	dst = binary.BigEndian.AppendUint16(dst, r.Class)
	return append(dst, r.Probs...), nil
}

// ResponseFrameLen is the length of r's frame as AppendResponseFrame
// encodes it.
func ResponseFrameLen(r *Response) int { return WireHeaderLen + 2 + len(r.Probs) }

// errResponseTooLarge rejects a response payload past the wire's 16-bit
// length field.
var errResponseTooLarge = fmt.Errorf("nic: response payload exceeds 64 KiB")

// ParseResponse unpacks a response message. Its refusals are fixed values,
// so it is small enough to inline, and a caller that keeps the Response
// local keeps it on its stack.
func ParseResponse(m *Message) (*Response, error) {
	if !m.IsResponse() {
		return nil, errNotResponse
	}
	if len(m.Payload) < 2 {
		return nil, errResponsePayload
	}
	return &Response{
		RequestID: m.RequestID,
		ModelID:   m.ModelID,
		Class:     binary.BigEndian.Uint16(m.Payload[0:2]),
		Probs:     m.Payload[2:],
		Err:       m.IsError(),
	}, nil
}

// ParseResponse's refusals.
var (
	errNotResponse     = errors.New("nic: message is not a response")
	errResponsePayload = fmt.Errorf("%w: response payload", ErrTruncated)
)

// BuildFrame assembles a full Ethernet/IPv4/UDP/Lightning frame from srcPort
// to dstPort. A query goes from the caller's (ephemeral) source port to
// InferencePort. The NIC's response goes back from InferencePort to the
// query's source port, the exact reverse of the query's five-tuple, so the
// reply reaches the socket the query left from.
func BuildFrame(eth Ethernet, ip IPv4, srcPort, dstPort uint16, msg *Message) ([]byte, error) {
	body, err := msg.Encode()
	if err != nil {
		return nil, err
	}
	udp := UDP{SrcPort: srcPort, DstPort: dstPort}
	seg := udp.AppendTo(nil, body)
	ip.Protocol = IPProtoUDP
	if ip.TTL == 0 {
		ip.TTL = 64
	}
	pkt := ip.AppendTo(nil, seg)
	eth.EtherType = EtherTypeIPv4
	return eth.AppendTo(nil, pkt), nil
}
