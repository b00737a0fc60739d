package cluster

import (
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// gateFault holds the shard's serve lock from Apply until released, so
// every query dispatched to the shard meanwhile blocks in the datapath.
type gateFault struct{ held, release chan struct{} }

func (gateFault) Name() string { return "gate" }

func (g gateFault) Apply(fault.Target) error {
	close(g.held)
	<-g.release
	return nil
}

// holdShard gates n's only shard and returns the release. n.Metrics takes
// the same lock, so nothing may scrape n until the release.
func holdShard(t *testing.T, n *lightning.NIC) (release func()) {
	t.Helper()
	g := gateFault{held: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- n.InjectFault(0, g) }()
	<-g.held
	return func() {
		close(g.release)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// parityCounters is the per-reason accounting both front doors must agree
// on, and the Err-flagged request IDs they answered.
type parityCounters struct {
	DecodeErrors, OversizedCoalesce, CoalescedFrames, QueueFull uint64
	ReassemblyOversize, WriteErrors                             uint64
	ErrIDs                                                      map[uint32]bool
}

func counters(s frontdoor.Stats, oversize uint64, errIDs map[uint32]bool) parityCounters {
	return parityCounters{s.DecodeErrors, s.OversizedCoalesce, s.CoalescedFrames, s.QueueFull,
		oversize, s.WriteErrors, errIDs}
}

// TestFrontDoorParity runs one datagram script over loopback through a NIC
// and through a coordinator, both with two workers (admission bound 8), and
// requires identical per-reason counters and Err-flagged request IDs: the
// two are one front door. A control frame is refused inline on both (the
// NIC does not accept installs; the coordinator never does). The overflow
// burst arrives while the shard that answers — the NIC's own, the
// coordinator's node's — is gated, so both workers hold a query and the
// queue fills. Those two orderings are waited out with sleeps: while the
// gate holds the shard, NIC.Metrics blocks on the same lock, so the NIC side
// has no event to wait on. A StubConn refusing every read-deadline arm then
// lands in DeadlineErrors on both, never in WriteErrors.
func TestFrontDoorParity(t *testing.T) {
	const modelID, width, seed = 4, 32, uint64(23)
	model := lightning.SyntheticDeepHalvesModel(width, 3)
	enc := func(m *nic.Message) []byte {
		raw, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	query := func(id uint32, model uint16) []byte {
		return enc(&nic.Message{RequestID: id, ModelID: model, Payload: make([]byte, width)})
	}
	var coalesced []byte
	for id := uint32(11); id <= 18; id++ {
		coalesced = append(coalesced, query(id, modelID)...)
	}
	corrupt := query(31, modelID)
	corrupt[0] ^= 0xff
	hostile := &nic.Message{Flags: nic.FlagFragment, RequestID: 51, ModelID: modelID, Payload: make([]byte, nic.FragHeaderLen+4)}
	binary.BigEndian.PutUint32(hostile.Payload[4:8], 0xffffffff)
	var blockers, burst [][]byte
	for id := uint32(71); id <= 72; id++ {
		blockers = append(blockers, query(id, modelID))
	}
	for id := uint32(81); id <= 92; id++ {
		burst = append(burst, query(id, modelID))
	}
	steps := []struct {
		name    string
		dgrams  [][]byte
		replies int
		// overflow sends dgrams while the answering shard is gated: the
		// blockers first, then the burst once both workers hold one.
		overflow bool
	}{
		{"good query", [][]byte{query(1, modelID)}, 1, false},
		{"eight coalesced queries", [][]byte{coalesced}, 8, false},
		{"valid frame, corrupt tail", [][]byte{append(query(21, modelID), 0x4c, 0x50, 0x01)}, 1, false},
		{"corrupt first frame", [][]byte{corrupt}, 0, false},
		{"stray response", [][]byte{enc((&nic.Response{RequestID: 41, ModelID: modelID, Probs: []uint8{1, 2}}).ToMessage())}, 0, false},
		{"hostile fragment total", [][]byte{enc(hostile)}, 1, false},
		{"unknown model", [][]byte{query(61, modelID+1)}, 1, false},
		{"control frame", [][]byte{enc(nic.BuildControlMessage(65, modelID, nic.CtrlInstallModel, []byte{1}))}, 1, false},
		{"overflow burst", append(blockers, burst...), 2 + 8, true},
		{"sentinel", [][]byte{query(99, modelID)}, 1, false},
	}
	want := parityCounters{DecodeErrors: 1, OversizedCoalesce: 1, CoalescedFrames: 7, QueueFull: 4,
		ReassemblyOversize: 1, ErrIDs: map[uint32]bool{51: true, 61: true, 65: true}}

	// run plays the script against a front door at addr; gate holds the
	// shard that answers it.
	run := func(name string, addr net.Addr, gate func() (release func())) map[uint32]bool {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		send := func(dgrams [][]byte) {
			for _, d := range dgrams {
				if _, err := conn.WriteTo(d, addr); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		errFlag := make(map[uint32]bool)
		buf := make([]byte, 2048)
		for _, st := range steps {
			if st.overflow {
				release := gate()
				send(st.dgrams[:len(blockers)])
				time.Sleep(200 * time.Millisecond) // both workers now hold a blocker
				send(st.dgrams[len(blockers):])
				time.Sleep(200 * time.Millisecond) // the reader has offered the burst
				release()
			} else {
				send(st.dgrams)
			}
			if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			for want := len(errFlag) + st.replies; len(errFlag) < want; {
				k, _, err := conn.ReadFrom(buf)
				if err != nil {
					t.Fatalf("%s, %s: %d replies of %d: %v", name, st.name, len(errFlag), want, err)
				}
				// A datagram may pack several responses; walk every frame.
				for data := buf[:k]; len(data) > 0; {
					var reply nic.Message
					n, err := reply.DecodeNext(data)
					if err != nil || !reply.IsResponse() {
						t.Fatalf("%s, %s: bad reply %x (%v)", name, st.name, buf[:k], err)
					}
					errFlag[reply.RequestID] = reply.IsError()
					data = data[n:]
				}
			}
		}
		errIDs := make(map[uint32]bool)
		for id, bad := range errFlag {
			if bad {
				errIDs[id] = true
			}
		}
		return errIDs
	}

	// The NIC.
	srv, err := lightning.New(lightning.Config{Lanes: 2, Noiseless: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterModel(modelID, "deep", model); err != nil {
		t.Fatal(err)
	}
	nicPC, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nicPC.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDPWorkers(ctx, nicPC, 2) }()
	nicErrIDs := run("nic", nicPC.LocalAddr(), func() func() { return holdShard(t, srv) })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("NIC ServeUDPWorkers: %v", err)
	}
	nm := srv.Metrics()
	nicGot := counters(nm.Serve, nm.ReassemblyOversize, nicErrIDs)

	// The coordinator, in front of one node.
	h := startHarness(t, 1, seed)
	coord, err := New(Config{Nodes: h.addrs, Model: model, ModelID: modelID, Seed: seed, Budget: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	front, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	ctx, cancel = context.WithCancel(context.Background())
	go func() { done <- coord.ServeUDP(ctx, front, 2) }()
	coordErrIDs := run("coordinator", front.LocalAddr(), func() func() { return holdShard(t, h.nodes[0].nic) })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("coordinator ServeUDP: %v", err)
	}
	cm := coord.Metrics()
	coordGot := counters(cm.Serve, cm.ReassemblyOversize, coordErrIDs)

	if !reflect.DeepEqual(nicGot, want) {
		t.Errorf("NIC counters %+v, want %+v", nicGot, want)
	}
	if !reflect.DeepEqual(coordGot, nicGot) {
		t.Errorf("coordinator counters %+v, NIC %+v", coordGot, nicGot)
	}
	if got := cm.Serve.AdmissionDrops[modelID]; got != want.QueueFull {
		t.Errorf("coordinator AdmissionDrops[%d] = %d, want %d", modelID, got, want.QueueFull)
	}
	if cm.Degraded != 0 {
		t.Errorf("coordinator Degraded = %d: overload is a drop now, not an Err-flagged answer", cm.Degraded)
	}
	if live := netbatch.FastPathAvailable() && !netbatch.FallbackForced(); cm.Serve.GRO != live {
		t.Errorf("coordinator socket GRO = %v, want %v", cm.Serve.GRO, live)
	}

	// A refused deadline arm is a deadline error on both, not a write error.
	deadline := func(serve func(context.Context, net.PacketConn) error) {
		pc := fault.NewStubConn()
		pc.FailDeadlines = true
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := serve(ctx, pc); err != nil {
			t.Fatal(err)
		}
	}
	deadline(func(ctx context.Context, pc net.PacketConn) error { return srv.ServeUDPWorkers(ctx, pc, 2) })
	deadline(func(ctx context.Context, pc net.PacketConn) error { return coord.ServeUDP(ctx, pc, 2) })
	ns, cs := srv.Metrics().Serve, coord.Metrics().Serve
	if ns.DeadlineErrors != 1 || cs.DeadlineErrors != 1 {
		t.Errorf("DeadlineErrors: NIC %d, coordinator %d, want 1 each", ns.DeadlineErrors, cs.DeadlineErrors)
	}
	if ns.WriteErrors != 0 || cs.WriteErrors != 0 {
		t.Errorf("WriteErrors: NIC %d, coordinator %d, want 0 each", ns.WriteErrors, cs.WriteErrors)
	}
}
