package lightning

// Batch/serial differential suite: the NIC's group handler — the one way
// into the datapath, whatever group the front door hands it — must be
// provably equivalent to serving one query at a time: bit-identical
// responses per request on an ideal channel, for random workloads and
// splits (property test, plus a live batching worker pool) and adversarial
// fragment interleavings and fuzzed splits (fuzz target). Equivalence is
// asserted on the wire encoding, not on floats: if any analog coupling
// leaked between grouped queries, the response bytes would diverge.

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// diffModels registers the differential suite's model zoo (mixed widths, so
// mixed models exercise per-model queue isolation) on a NIC.
func diffModels(t testing.TB, n *NIC) map[uint16]int {
	t.Helper()
	widths := map[uint16]int{4: 32, 5: 64, 6: 16}
	for id, w := range widths {
		if err := n.RegisterModel(id, "halves", halvesModel(w)); err != nil {
			t.Fatal(err)
		}
	}
	return widths
}

// responseBytes canonicalizes a served response for bit-level comparison.
func responseBytes(t testing.TB, resp *Response) []byte {
	t.Helper()
	if resp == nil {
		return nil
	}
	raw, err := resp.ToMessage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

type diffOutcome struct {
	resp []byte
	err  string
}

func outcomeOf(t testing.TB, resp *Response, err error) diffOutcome {
	t.Helper()
	o := diffOutcome{resp: responseBytes(t, resp)}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// diffQuery is one query of a differential workload.
type diffQuery struct {
	id      uint32
	modelID uint16
	payload []byte
}

// diffQueries draws nq queries over the model zoo, with a sprinkle of
// client mistakes (wrong input width, unknown model).
func diffQueries(rng *rand.Rand, widths map[uint16]int, nq int) []diffQuery {
	queries := make([]diffQuery, nq)
	ids := []uint16{4, 5, 6}
	for i := range queries {
		modelID := ids[rng.Intn(len(ids))]
		w := widths[modelID]
		switch rng.Intn(10) {
		case 0:
			w-- // client mistake: wrong input width
		case 1:
			modelID = 77 // client mistake: unknown model
		}
		payload := make([]byte, w)
		rng.Read(payload)
		queries[i] = diffQuery{id: uint32(i + 1), modelID: modelID, payload: payload}
	}
	return queries
}

// groupOutcomes hands reqs to n's group handler as one group, as the front
// door does, and returns each request's outcome.
func groupOutcomes(t testing.TB, n *NIC, reqs []frontdoor.Request) []diffOutcome {
	t.Helper()
	resps := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		resps[i] = Response{RequestID: r.ID, ModelID: r.Model}
	}
	n.serveGroup(reqs, resps, errs)
	out := make([]diffOutcome, len(reqs))
	for i := range reqs {
		out[i] = outcomeOf(t, &resps[i], errs[i])
	}
	return out
}

// TestBatchSerialDifferential is the property test: for random seeded
// workloads — mixed models, mixed widths, a sprinkle of client mistakes,
// faults off — split into groups of 1..maxBatch queries handed to the
// NIC's group handler, every response is bit-identical to the serial
// path's. The two NICs deliberately run different Seeds: on an ideal
// channel a served result is a pure function of (model, input), so no rng
// stream may show through, grouped or not. A live round then serves one
// workload through a batching worker pool.
func TestBatchSerialDifferential(t *testing.T) {
	for _, maxBatch := range []int{1, 2, 3, 8, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			batched, err := New(Config{Lanes: 2, Noiseless: true, Seed: 99, Cores: 2})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := New(Config{Lanes: 2, Noiseless: true, Seed: 1, Cores: 2})
			if err != nil {
				t.Fatal(err)
			}
			widths := diffModels(t, batched)
			diffModels(t, serial)

			rng := rand.New(rand.NewSource(seed*1000 + int64(maxBatch)))
			const nq = 48
			queries := diffQueries(rng, widths, nq)

			// Batched side: the queries in arrival order, split into
			// groups of 1..maxBatch.
			var got []diffOutcome
			for lo := 0; lo < nq; {
				hi := min(nq, lo+1+rng.Intn(maxBatch))
				reqs := make([]frontdoor.Request, 0, hi-lo)
				for _, q := range queries[lo:hi] {
					reqs = append(reqs, frontdoor.Request{ID: q.id, Model: q.modelID, Query: q.payload})
				}
				got = append(got, groupOutcomes(t, batched, reqs)...)
				lo = hi
			}

			// Serial side: same queries, one at a time.
			for i, q := range queries {
				resp, err := serial.HandleMessage(&Message{RequestID: q.id, ModelID: q.modelID, Payload: q.payload})
				want := outcomeOf(t, resp, err)
				if !bytes.Equal(got[i].resp, want.resp) || got[i].err != want.err {
					t.Fatalf("maxBatch=%d seed=%d query %d (model %d): batched %+v != serial %+v",
						maxBatch, seed, q.id, q.modelID, got[i], want)
				}
			}
			if b, s := batched.Metrics().Served, serial.Metrics().Served; b != s {
				t.Fatalf("maxBatch=%d seed=%d served %d != serial %d", maxBatch, seed, b, s)
			}
		}
	}

	t.Run("live", func(t *testing.T) {
		batched, err := New(Config{
			Lanes: 2, Noiseless: true, Seed: 99, Cores: 2,
			Batch: BatchConfig{MaxBatch: 8, MaxDelay: 500 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := New(Config{Lanes: 2, Noiseless: true, Seed: 1, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		widths := diffModels(t, batched)
		diffModels(t, serial)
		conn := newFlushConn()
		batched.rail = func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn { return conn }
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- batched.ServeUDPWorkers(ctx, nil, 8) }()
		defer func() {
			cancel()
			close(conn.closed)
			if err := <-done; err != nil {
				t.Errorf("serve returned %v", err)
			}
		}()

		const nq = 48
		queries := diffQueries(rand.New(rand.NewSource(1000+8)), widths, nq)
		for lo := 0; lo < nq; lo += 8 {
			var read []sourced
			for _, q := range queries[lo : lo+8] {
				read = append(read, sourced{data: encodeQuery(t, q.id, q.modelID, q.payload), from: clientA})
			}
			conn.in <- read
		}
		got := make(map[uint32][]byte, nq)
		for _, s := range conn.await(t, nq) {
			got[s.id] = s.data
		}
		for _, q := range queries {
			resp, _ := serial.HandleMessage(&Message{RequestID: q.id, ModelID: q.modelID, Payload: q.payload})
			want, err := nic.AppendResponseFrame(nil, resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[q.id], want) {
				t.Fatalf("query %d (model %d): served %x != serial %x", q.id, q.modelID, got[q.id], want)
			}
		}
		if m := batched.Metrics(); m.Batch.Queries != nq || m.Served != serial.Metrics().Served {
			t.Fatalf("batch queries %d, served %d: want %d through the batch pop and serial's %d served",
				m.Batch.Queries, m.Served, nq, serial.Metrics().Served)
		}
	})
}

// TestBatchDrainFlushesPending pins the NIC.Drain contract directly: with a
// delay too long to fire during the test, queries waiting in admission for
// their batch are answered only because Drain releases them.
func TestBatchDrainFlushesPending(t *testing.T) {
	const width = 32
	n, conn := serveFlush(t, Config{
		Lanes: 2, Noiseless: true, Seed: 7,
		Batch: BatchConfig{MaxBatch: 8, MaxDelay: time.Hour},
	}, 8)
	const k = 3 // strictly fewer than MaxBatch: nothing flushes on its own
	payloads := make([][]Code, k)
	for i := range payloads {
		payloads[i] = brightHalfQuery(width, i%2)
	}
	conn.in <- codeQueries(t, flushModel, payloads...)
	waitQueued(t, n, k)
	if err := n.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := conn.responses(t, k)
	for i := 0; i < k; i++ {
		if resp := got[uint32(i+1)]; resp == nil || int(resp.Class) != i%2 || resp.Err {
			t.Fatalf("drained query %d got %+v", i, resp)
		}
	}
	m := n.Metrics()
	if m.Batch.DrainFlushes == 0 || queued(n) != 0 {
		t.Fatalf("drain accounting: %+v pending=%d", m.Batch, queued(n))
	}
}

// FuzzBatchEquivalence feeds adversarial arrival orders, fragment
// interleavings and group splits through the group handler: every query is
// split into fragments, and every fragment of every request arrives in one
// random global order (within a request any permutation is legal, since
// reassembly is offset-based). Each request that completes reassembly
// joins the current group, and the fuzzed split byte ends a group after
// completion c when its bit c%8 is set — 0 one group of all, 255 groups of
// one. However the groups form, each response must be bit-identical to the
// serial twin's answer for the same whole query.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), uint8(9))
	f.Add(int64(2), uint8(0), uint8(1), uint8(0))
	f.Add(int64(3), uint8(6), uint8(12), uint8(28))
	f.Add(int64(4), uint8(2), uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, split, nqB, fragB uint8) {
		nq := 1 + int(nqB%16)           // 1..16
		maxPayload := 9 + int(fragB)%24 // 9..32: > FragHeaderLen, forces multi-fragment queries
		rng := rand.New(rand.NewSource(seed))

		batched, err := New(Config{Lanes: 2, Noiseless: true, Seed: 99, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := New(Config{Lanes: 2, Noiseless: true, Seed: 1, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		widths := diffModels(t, batched)
		diffModels(t, serial)

		type query struct {
			diffQuery
			frags []*Message
		}
		queries := make([]query, nq)
		ids := []uint16{4, 5, 6}
		var arrivals []*Message
		for i := range queries {
			modelID := ids[rng.Intn(len(ids))]
			w := widths[modelID]
			if rng.Intn(8) == 0 {
				w++ // client mistake, discovered only after reassembly
			}
			payload := make([]byte, w)
			rng.Read(payload)
			frags, err := nic.Fragment(uint32(i+1), modelID, payload, maxPayload)
			if err != nil {
				t.Fatal(err)
			}
			queries[i] = query{diffQuery{id: uint32(i + 1), modelID: modelID, payload: payload}, frags}
			arrivals = append(arrivals, frags...)
		}
		rng.Shuffle(len(arrivals), func(a, b int) { arrivals[a], arrivals[b] = arrivals[b], arrivals[a] })

		got := make(map[uint32]diffOutcome, nq)
		var group []frontdoor.Request
		answer := func() {
			for i, o := range groupOutcomes(t, batched, group) {
				got[group[i].ID] = o
			}
			group = group[:0]
		}
		completed := 0
		for _, fr := range arrivals {
			q, model, done, err := batched.reassembly.Offer(fr)
			if err != nil {
				t.Fatalf("fragment of request %d refused: %v", fr.RequestID, err)
			}
			if !done {
				continue
			}
			group = append(group, frontdoor.Request{ID: fr.RequestID, Model: model, Query: q})
			if split&(1<<(completed%8)) != 0 {
				answer()
			}
			completed++
		}
		answer()

		for _, q := range queries {
			resp, err := serial.HandleMessage(&Message{RequestID: q.id, ModelID: q.modelID, Payload: q.payload})
			want := outcomeOf(t, resp, err)
			if o := got[q.id]; !bytes.Equal(o.resp, want.resp) || o.err != want.err {
				t.Fatalf("query %d (model %d, %d frags): grouped %+v != serial %+v",
					q.id, q.modelID, len(q.frags), o, want)
			}
		}
	})
}
