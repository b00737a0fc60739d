package mem

import (
	"testing"

	"github.com/lightning-smartnic/lightning/internal/axi"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

func TestSpecs(t *testing.T) {
	ddr := DDR4Spec()
	// ≈170 Gbps (§6.1).
	if ddr.BandwidthBps < 169e9 || ddr.BandwidthBps > 172e9 {
		t.Errorf("DDR4 bandwidth = %v", ddr.BandwidthBps)
	}
}

func TestStoreLoadDelete(t *testing.T) {
	d := New(DDR4Spec(), 1)
	if err := d.Store("k", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 3 {
		t.Errorf("Used = %d", d.Used())
	}
	b, ok := d.Load("k")
	if !ok || len(b) != 3 || b[2] != 3 {
		t.Errorf("Load = %v, %v", b, ok)
	}
	if d.Reads() != 1 || d.ReadBytes() != 3 {
		t.Errorf("read stats: %d, %d", d.Reads(), d.ReadBytes())
	}
	// Overwrite reuses space.
	if err := d.Store("k", []byte{9}); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 1 {
		t.Errorf("Used after overwrite = %d", d.Used())
	}
	d.Delete("k")
	if d.Used() != 0 {
		t.Errorf("Used after delete = %d", d.Used())
	}
	if _, ok := d.Load("k"); ok {
		t.Error("deleted key still loads")
	}
}

func TestStoreCapacity(t *testing.T) {
	d := New(Spec{Name: "tiny", CapacityBytes: 4}, 1)
	if err := d.Store("a", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := d.Store("b", []byte{5}); err == nil {
		t.Error("over-capacity store accepted")
	}
}

func TestStoreCopiesInput(t *testing.T) {
	d := New(DDR4Spec(), 1)
	src := []byte{1}
	d.Store("k", src)
	src[0] = 99
	b, _ := d.Load("k")
	if b[0] != 1 {
		t.Error("Store aliases caller slice")
	}
}

func TestReaderStreamsWholeBlob(t *testing.T) {
	d := New(DDR4Spec(), 3)
	blob := make([]byte, 100)
	for i := range blob {
		blob[i] = byte(i)
	}
	d.Store("w", blob)
	r, err := d.NewReader("w", 16)
	if err != nil {
		t.Fatal(err)
	}
	dst := axi.NewStream[fixed.Code](256)
	for i := 0; r.Remaining() > 0; i++ {
		r.Fill(dst)
		if i > 10000 {
			t.Fatal("reader livelock")
		}
	}
	if dst.Len() != 100 {
		t.Fatalf("delivered %d samples", dst.Len())
	}
	for i := 0; i < 100; i++ {
		b, _ := dst.Pop()
		if b.Data != fixed.Code(i) {
			t.Fatalf("sample %d = %d", i, b.Data)
		}
	}
}

func TestReaderRespectsBackpressure(t *testing.T) {
	d := New(DDR4Spec(), 3)
	d.Store("w", make([]byte, 100))
	r, _ := d.NewReader("w", 16)
	r.StallProb = 0
	dst := axi.NewStream[fixed.Code](4)
	if n := r.Fill(dst); n != 4 {
		t.Errorf("Fill into depth-4 stream = %d, want 4", n)
	}
	if n := r.Fill(dst); n != 0 {
		t.Errorf("Fill into full stream = %d, want 0", n)
	}
}

func TestReaderErrors(t *testing.T) {
	d := New(DDR4Spec(), 3)
	if _, err := d.NewReader("missing", 8); err == nil {
		t.Error("missing key accepted")
	}
	d.Store("w", []byte{1})
	if _, err := d.NewReader("w", 0); err == nil {
		t.Error("zero burst accepted")
	}
}

func TestReaderBurstiness(t *testing.T) {
	d := New(DDR4Spec(), 5)
	d.Store("w", make([]byte, 1000))
	r, _ := d.NewReader("w", 8)
	dst := axi.NewStream[fixed.Code](4096)
	stalls := 0
	for r.Remaining() > 0 {
		if r.Fill(dst) == 0 {
			stalls++
		}
	}
	if stalls == 0 {
		t.Error("no burstiness stalls observed with StallProb=0.1")
	}
}

func TestReadFaultFailsReads(t *testing.T) {
	d := New(DDR4Spec(), 1)
	if err := d.Store("w", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	left := 2
	d.SetReadFault(func(key string, blob []byte) ([]byte, bool) {
		if left > 0 {
			left--
			return nil, false
		}
		return blob, true
	})
	for i := 0; i < 2; i++ {
		if _, ok := d.Load("w"); ok {
			t.Fatalf("load %d succeeded during fault burst", i)
		}
	}
	if got := d.FaultedReads(); got != 2 {
		t.Errorf("FaultedReads = %d, want 2", got)
	}
	if b, ok := d.Load("w"); !ok || len(b) != 3 {
		t.Errorf("load after burst = %v, %v", b, ok)
	}
	d.SetReadFault(nil)
	if _, ok := d.Load("w"); !ok {
		t.Error("load failed after hook removed")
	}
}

func TestReadFaultCorruptsCopyNotStore(t *testing.T) {
	d := New(DDR4Spec(), 1)
	if err := d.Store("w", []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	d.SetReadFault(func(key string, blob []byte) ([]byte, bool) {
		cp := append([]byte(nil), blob...)
		cp[0] ^= 0xff
		return cp, true
	})
	if b, _ := d.Load("w"); b[0] != 0xff {
		t.Errorf("corrupting hook not applied: % x", b)
	}
	d.SetReadFault(nil)
	if b, _ := d.Load("w"); b[0] != 0 {
		t.Errorf("stored blob was mutated: % x", b)
	}
}

func TestReadFaultMissingKeyBypassesHook(t *testing.T) {
	d := New(DDR4Spec(), 1)
	called := false
	d.SetReadFault(func(key string, blob []byte) ([]byte, bool) { called = true; return blob, true })
	if _, ok := d.Load("absent"); ok || called {
		t.Errorf("missing key: ok=%v hook called=%v", ok, called)
	}
}
