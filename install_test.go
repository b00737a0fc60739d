package lightning

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// serializeModel renders a model in the LQN1 wire format a CtrlInstallModel
// body carries.
func serializeModel(t *testing.T, m *TrainedModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// halvesQuery builds a width-wide query whose bright half decides the class.
func halvesQuery(width int, brightFirst bool) []byte {
	q := make([]byte, width)
	for i := range q {
		if (i < width/2) == brightFirst {
			q[i] = 200
		} else {
			q[i] = 10
		}
	}
	return q
}

// TestWireModelInstallRoundTrip: a control frame installs a model over the
// wire, the NIC acks it, serves it, and a second install under the same ID
// takes the atomic-update path.
func TestWireModelInstallRoundTrip(t *testing.T) {
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 5, AllowModelInstall: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const id = 40
	ctrl := nic.BuildControlMessage(7, id, nic.CtrlInstallModel, serializeModel(t, SyntheticHalvesModel(16)))
	resp, err := n.HandleMessage(ctrl)
	if err != nil || resp == nil || resp.Err {
		t.Fatalf("install: resp=%+v err=%v", resp, err)
	}
	if resp.RequestID != 7 || resp.ModelID != id {
		t.Fatalf("install ack carries request %d model %d, want 7/%d", resp.RequestID, resp.ModelID, id)
	}
	for _, tc := range []struct {
		brightFirst bool
		want        uint16
	}{{true, 0}, {false, 1}} {
		resp, err := n.HandleMessage(&Message{RequestID: 8, ModelID: id, Payload: halvesQuery(16, tc.brightFirst)})
		if err != nil || resp.Err {
			t.Fatalf("query installed model: resp=%+v err=%v", resp, err)
		}
		if resp.Class != tc.want {
			t.Fatalf("installed model answered class %d, want %d", resp.Class, tc.want)
		}
	}
	// Reinstall under the same ID (deeper variant): the update path, still
	// answering correctly afterwards.
	ctrl = nic.BuildControlMessage(9, id, nic.CtrlInstallModel, serializeModel(t, SyntheticDeepHalvesModel(16, 3)))
	if resp, err := n.HandleMessage(ctrl); err != nil || resp.Err {
		t.Fatalf("reinstall: resp=%+v err=%v", resp, err)
	}
	if resp, err := n.HandleMessage(&Message{RequestID: 10, ModelID: id, Payload: halvesQuery(16, false)}); err != nil || resp.Err || resp.Class != 1 {
		t.Fatalf("query after reinstall: resp=%+v err=%v", resp, err)
	}
	if m := n.Metrics(); m.ModelInstalls != 2 || m.ModelInstallErrors != 0 {
		t.Fatalf("installs %d / errors %d, want 2/0", m.ModelInstalls, m.ModelInstallErrors)
	}
}

// TestWireModelInstallRejections: installs are rejected — with an Err-flagged
// ack, never silence — when disabled by config, malformed, hostile, or an
// unknown op.
func TestWireModelInstallRejections(t *testing.T) {
	locked, err := New(Config{Lanes: 2, Noiseless: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer locked.Close()
	body := serializeModel(t, SyntheticHalvesModel(16))
	resp, herr := locked.HandleMessage(nic.BuildControlMessage(1, 40, nic.CtrlInstallModel, body))
	if !errors.Is(herr, ErrInstallDisabled) || resp == nil || !resp.Err {
		t.Fatalf("install on a locked NIC: resp=%+v err=%v, want ErrInstallDisabled", resp, herr)
	}

	open, err := New(Config{Lanes: 2, Noiseless: true, Seed: 5, AllowModelInstall: true})
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if resp, herr := open.HandleMessage(nic.BuildControlMessage(2, 40, nic.CtrlInstallModel, []byte{1, 2, 3})); herr == nil || !resp.Err {
		t.Fatalf("malformed install body: resp=%+v err=%v", resp, herr)
	}
	if resp, herr := open.HandleMessage(nic.BuildControlMessage(3, 40, 0xEE, nil)); herr == nil || !resp.Err {
		t.Fatalf("unknown control op: resp=%+v err=%v", resp, herr)
	}
	// A 26-byte body whose header claims a 2^24 x 2^24 layer: rejected like
	// any truncated model, without trying to allocate the claimed weights —
	// and the NIC installs and serves the next, honest model.
	hostile := binary.LittleEndian.AppendUint32(nil, 0x4c514e31) // "LQN1"
	hostile = binary.LittleEndian.AppendUint16(hostile, 1)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<24)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<24)
	hostile = append(hostile, make([]byte, 12)...) // shift, final, scale, two weight bytes
	if resp, herr := open.HandleMessage(nic.BuildControlMessage(4, 40, nic.CtrlInstallModel, hostile)); herr == nil || !resp.Err {
		t.Fatalf("hostile layer sizes: resp=%+v err=%v, want an Err-flagged response", resp, herr)
	}
	if m := open.Metrics(); m.ModelInstallErrors != 3 {
		t.Fatalf("ModelInstallErrors = %d, want 3", m.ModelInstallErrors)
	}
	if resp, herr := open.HandleMessage(nic.BuildControlMessage(5, 40, nic.CtrlInstallModel, body)); herr != nil || resp.Err {
		t.Fatalf("install after the hostile one: resp=%+v err=%v", resp, herr)
	}
	if resp, herr := open.HandleMessage(&Message{RequestID: 6, ModelID: 40, Payload: halvesQuery(16, false)}); herr != nil || resp.Err || resp.Class != 1 {
		t.Fatalf("query after the hostile install: resp=%+v err=%v, want class 1", resp, herr)
	}
}

// TestWireModelInstallFragmented: a model too large for one datagram travels
// as control-flagged fragments; the completing fragment triggers the install
// and the ack.
func TestWireModelInstallFragmented(t *testing.T) {
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 5, AllowModelInstall: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const id = 41
	const width = 1600 // 2x1600 weight rows serialize well past one 1400-byte fragment
	ctrl := nic.BuildControlMessage(11, id, nic.CtrlInstallModel, serializeModel(t, SyntheticHalvesModel(width)))
	frags, err := nic.FragmentFlags(11, id, nic.FlagControl, ctrl.Payload, nic.MaxFragPayload)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("model serialized into %d fragment(s), want >= 2 for this test", len(frags))
	}
	for i, f := range frags {
		resp, herr := n.HandleMessage(f)
		if i < len(frags)-1 {
			if resp != nil || herr != nil {
				t.Fatalf("fragment %d: resp=%+v err=%v, want silence before completion", i, resp, herr)
			}
			continue
		}
		if herr != nil || resp == nil || resp.Err {
			t.Fatalf("completing fragment: resp=%+v err=%v", resp, herr)
		}
	}
	resp, err := n.HandleMessage(&Message{RequestID: 12, ModelID: id, Payload: halvesQuery(width, true)})
	if err != nil || resp.Err || resp.Class != 0 {
		t.Fatalf("query after fragmented install: resp=%+v err=%v", resp, err)
	}
}
