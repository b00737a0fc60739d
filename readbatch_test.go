package lightning

import (
	"bytes"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestServeUDPReadBatchIsOneMatrixPass: ServeUDP's inline reader answers
// the complete queries of one batched read together, as one matrix pass per
// model, and every response is byte-equal to its HandleMessage twin's (both
// NICs noiseless). Each case sends its frames coalesced into one datagram:
//   - eight queries for a three-layer model cost three reconfigurations,
//     one per layer, not twenty-four, and leave in one flush, packed in
//     one datagram;
//   - a group mixing two models, with one wrong-width query, gets one pass
//     per model and an answer per query, the wrong-width one Err-flagged;
//   - an install between two queries splits the group: the earlier query
//     is answered by the old model and the later one by the new.
func TestServeUDPReadBatchIsOneMatrixPass(t *testing.T) {
	const deepModel, deepWidth, depth = 9, 16, 3
	cfg := Config{Lanes: 2, Noiseless: true, Seed: 3, AllowModelInstall: true}
	// start serves both models on a NIC with no workers and no batch queue,
	// and builds its HandleMessage twin.
	start := func(t *testing.T) (n, twin *NIC, conn *flushConn) {
		t.Helper()
		n, conn = serveFlush(t, cfg, 0)
		twin, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.RegisterModel(flushModel, "halves", halvesModel(flushWidth)); err != nil {
			t.Fatal(err)
		}
		for _, nc := range []*NIC{n, twin} {
			if err := nc.RegisterModel(deepModel, "deep", SyntheticDeepHalvesModel(deepWidth, depth)); err != nil {
				t.Fatal(err)
			}
		}
		return n, twin, conn
	}
	query := func(id uint32, model uint16, width int) *nic.Message {
		return &nic.Message{RequestID: id, ModelID: model, Payload: halvesQuery(width, id%2 == 0)}
	}
	// serve sends msgs as one datagram and checks each response against
	// the twin's answer to the same message, in the same order. It returns
	// the responses by request ID and the reconfigurations the read cost.
	serve := func(t *testing.T, n, twin *NIC, conn *flushConn, msgs ...*nic.Message) (map[uint32]sent, uint64) {
		t.Helper()
		var d []byte
		for _, m := range msgs {
			var err error
			if d, err = m.AppendEncode(d); err != nil {
				t.Fatal(err)
			}
		}
		before := n.Metrics().Reconfigurations
		conn.in <- []sourced{{data: d, from: clientA}}
		got := make(map[uint32]sent)
		for _, s := range conn.await(t, len(msgs)) {
			got[s.id] = s
		}
		for _, m := range msgs {
			resp, _ := twin.HandleMessage(m) // an Err-flagged twin is compared too
			want, err := nic.AppendResponseFrame(nil, resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[m.RequestID].data, want) {
				t.Errorf("request %d: response %x, its HandleMessage twin %x", m.RequestID, got[m.RequestID].data, want)
			}
		}
		return got, n.Metrics().Reconfigurations - before
	}

	t.Run("one-model", func(t *testing.T) {
		n, twin, conn := start(t)
		const k = 8
		var msgs []*nic.Message
		for id := uint32(1); id <= k; id++ {
			msgs = append(msgs, query(id, deepModel, deepWidth))
		}
		got, reconfigs := serve(t, n, twin, conn, msgs...)
		if reconfigs != depth {
			t.Errorf("%d queries cost %d reconfigurations, want %d: one per layer", k, reconfigs, depth)
		}
		for id, s := range got {
			if s.err || s.class != int(id%2) {
				t.Errorf("request %d answered class %d (error %v), want its oracle %d", id, s.class, s.err, id%2)
			}
		}
		flushes := conn.recorded()
		if sizes := flushSizes(flushes); len(sizes) != 1 || sizes[0] != k {
			t.Fatalf("flush sizes %v, want one flush of %d", sizes, k)
		}
		if n := datagrams(flushes[0]); n != 1 {
			t.Errorf("one client's %d responses left in %d datagrams, want 1", k, n)
		}
		if h := n.Metrics().Serve.InlineBatchSize; h.Count != 1 || h.Sum != k {
			t.Errorf("InlineBatchSize Count %d Sum %d, want 1 and %d", h.Count, h.Sum, k)
		}
	})

	t.Run("mixed-models", func(t *testing.T) {
		n, twin, conn := start(t)
		const wrong = 3
		msgs := []*nic.Message{
			query(1, flushModel, flushWidth),
			query(2, deepModel, deepWidth),
			query(wrong, flushModel, flushWidth-1),
			query(4, deepModel, deepWidth),
			query(5, flushModel, flushWidth),
			query(6, deepModel, deepWidth),
		}
		got, reconfigs := serve(t, n, twin, conn, msgs...)
		if want := uint64(1 + depth); reconfigs != want {
			t.Errorf("two models' queries cost %d reconfigurations, want %d: one pass per model", reconfigs, want)
		}
		if len(got) != len(msgs) {
			t.Fatalf("%d distinct responses to %d queries", len(got), len(msgs))
		}
		for id, s := range got {
			if s.err != (id == wrong) {
				t.Errorf("request %d: Err flag %v, want %v", id, s.err, id == wrong)
			}
		}
		if h := n.Metrics().Serve.InlineBatchSize; h.Count != 1 || h.Sum != uint64(len(msgs)) {
			t.Errorf("InlineBatchSize Count %d Sum %d, want 1 and %d", h.Count, h.Sum, len(msgs))
		}
	})

	t.Run("install-between-queries", func(t *testing.T) {
		n, twin, conn := start(t)
		// The installed model swaps the halves model's output neurons, so
		// it answers every query with the other class.
		swapped := halvesModel(flushWidth)
		w := swapped.Layers[0].Weights
		w[0], w[1] = w[1], w[0]
		install := nic.BuildControlMessage(2, flushModel, nic.CtrlInstallModel, serializeModel(t, swapped))
		got, reconfigs := serve(t, n, twin, conn, query(1, flushModel, flushWidth), install, query(3, flushModel, flushWidth))
		if s := got[2]; s.err {
			t.Fatal("the install was refused")
		}
		if s := got[1]; s.err || s.class != 1 {
			t.Errorf("the query ahead of the install answered class %d (error %v), want the old model's 1", s.class, s.err)
		}
		if s := got[3]; s.err || s.class != 0 {
			t.Errorf("the query after the install answered class %d (error %v), want the new model's 0", s.class, s.err)
		}
		if reconfigs != 2 {
			t.Errorf("the split group cost %d reconfigurations, want 2: one pass on each side of the install", reconfigs)
		}
		if h := n.Metrics().Serve.InlineBatchSize; h.Count != 2 || h.Sum != 2 {
			t.Errorf("InlineBatchSize Count %d Sum %d, want 2 and 2", h.Count, h.Sum)
		}
	})
}
