package lightning

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestServeDoesNotRetainQueryBuffer: the query's bytes are the engine's
// operand, not a copy of them, so nothing on the serve path may still be
// reading a buffer once its response is out. Each round serves a buffer,
// overwrites it with the opposite class's query the moment the response
// arrives, and serves a fresh buffer; every answer must be its own query's
// oracle. Inline and batched rounds hand the NIC caller-owned buffers through
// HandleMessage, unfragmented and as a fragment train; the worker-pool rounds
// pipeline alternating classes down one socket so the reader recycles its rx
// buffers — and, for fragment trains, its reassembly buffers, each written by
// a later train once its query is answered — under the workers. The race
// detector sees any read that outlives a response as a race with the
// overwrite.
func TestServeDoesNotRetainQueryBuffer(t *testing.T) {
	const width, model = 4096, 9
	build := func(cfg Config) *NIC {
		cfg.Lanes, cfg.Noiseless, cfg.Seed = 2, true, 5
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterModel(model, "halves", halvesModel(width)); err != nil {
			t.Fatal(err)
		}
		return n
	}
	// serve sends one query through HandleMessage in frames of maxPayload
	// bytes and returns the class the NIC answered.
	serve := func(n *NIC, id uint32, q []byte, maxPayload int) uint16 {
		msgs, err := nic.Fragment(id, model, q, maxPayload)
		if err != nil {
			t.Error(err)
			return 99
		}
		if len(msgs) == 1 {
			// The unfragmented message aliases q itself.
			msgs[0].Payload = q
		}
		for _, m := range msgs {
			resp, err := n.HandleMessage(m)
			if err != nil {
				t.Error(err)
				return 99
			}
			if resp != nil {
				// Overwrite what was served with the other class's query.
				// (A train was served from a reassembly buffer, which the
				// next train of its size writes once this one is answered.)
				copy(q, halvesQuery(width, resp.Class != 0))
				return resp.Class
			}
		}
		t.Error("no response")
		return 99
	}

	t.Run("inline", func(t *testing.T) {
		n := build(Config{})
		id := uint32(0)
		for round := 0; round < 6; round++ {
			for _, maxPayload := range []int{width, 1000} {
				id++
				want := round % 2
				if got := serve(n, id, halvesQuery(width, want == 0), maxPayload); int(got) != want {
					t.Fatalf("round %d (frames of %d): class %d, oracle %d", round, maxPayload, got, want)
				}
			}
		}
	})

	t.Run("batched", func(t *testing.T) {
		n := build(Config{Batch: BatchConfig{MaxBatch: 4, MaxDelay: 50 * time.Millisecond}})
		for round := 0; round < 4; round++ {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					want := (round + g) % 2
					maxPayload := width
					if g%2 == 1 {
						maxPayload = 1000
					}
					if got := serve(n, uint32(round*4+g+1), halvesQuery(width, want == 0), maxPayload); int(got) != want {
						t.Errorf("round %d caller %d: class %d, oracle %d", round, g, got, want)
					}
				}(g)
			}
			wg.Wait()
		}
	})

	t.Run("workers", func(t *testing.T) {
		const small, queries = 64, 48
		n := build(Config{
			Cores:     2,
			Batch:     BatchConfig{MaxBatch: 2, MaxDelay: time.Millisecond},
			Admission: AdmissionConfig{MaxQueue: queries},
		})
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- n.ServeUDPWorkers(ctx, pc, 4) }()
		conn, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// More queries than the reader has rx buffers, in flight together:
		// small enough to ride one datagram each, so every one of them
		// aliases an rx buffer until admission copies it out.
		if err := n.RegisterModel(model+1, "halves-small", halvesModel(small)); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= queries; id++ {
			if _, err := conn.Write(encodeQuery(t, uint32(id), model+1, halvesQuery(small, id%2 == 0))); err != nil {
				t.Fatal(err)
			}
		}
		for _, resp := range readResponses(t, conn, queries) {
			if resp.Err || int(resp.Class) != int(resp.RequestID)%2 {
				t.Fatalf("request %d: err=%v class %d, oracle %d", resp.RequestID, resp.Err, resp.Class, resp.RequestID%2)
			}
		}
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeUDPWorkers returned %v", err)
		}
	})

	t.Run("worker trains", func(t *testing.T) {
		const queries = 16
		n := build(Config{
			Cores:     2,
			Batch:     BatchConfig{MaxBatch: 2, MaxDelay: time.Millisecond},
			Admission: AdmissionConfig{MaxQueue: queries},
		})
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- n.ServeUDPWorkers(ctx, pc, 4) }()
		conn, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Every train is in flight at once, all of one size: the reader
		// reassembles the later ones while workers serve the earlier, into
		// the buffers those hand back.
		for id := 1; id <= queries; id++ {
			msgs, err := nic.Fragment(uint32(id), model, halvesQuery(width, id%2 == 0), 1000)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range msgs {
				d, err := m.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, resp := range readResponses(t, conn, queries) {
			if resp.Err || int(resp.Class) != int(resp.RequestID)%2 {
				t.Fatalf("request %d: err=%v class %d, oracle %d", resp.RequestID, resp.Err, resp.Class, resp.RequestID%2)
			}
		}
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeUDPWorkers returned %v", err)
		}
	})
}

// readResponses reads k responses from conn, walking each datagram's
// response frames as every receiver does, within 5 s of each read.
func readResponses(t *testing.T, conn net.Conn, k int) []*Response {
	t.Helper()
	var out []*Response
	buf := make([]byte, 2048)
	for len(out) < k {
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("after %d of %d responses: %v", len(out), k, err)
		}
		for data := buf[:n]; len(data) > 0; {
			var m Message
			consumed, err := m.DecodeNext(data)
			if err != nil {
				t.Fatal(err)
			}
			data = data[consumed:]
			resp, err := nic.ParseResponse(&m)
			if err != nil {
				t.Fatal(err)
			}
			resp.Probs = bytes.Clone(resp.Probs)
			out = append(out, resp)
		}
	}
	return out
}
