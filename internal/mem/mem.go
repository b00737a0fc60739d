// Package mem models Lightning's off-chip memory system (§6.1 "DRAM
// access"): the DDR4 attached to the prototype datapath and the
// back-pressure buffer that absorbs DRAM burstiness before the DACs.
package mem

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/lightning-smartnic/lightning/internal/axi"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Spec describes a memory technology.
type Spec struct {
	Name string
	// BandwidthBps is the sustained data rate in bits per second.
	BandwidthBps float64
	// CapacityBytes bounds stored data.
	CapacityBytes int64
}

// DDR4Spec is the prototype's memory: 2.67e9 transactions/s × 64 bits ≈
// 170 Gbps, 4 GB (§6.1).
func DDR4Spec() Spec {
	return Spec{
		Name:          "DDR4",
		BandwidthBps:  2.67e9 * 64,
		CapacityBytes: 4 << 30,
	}
}

// DRAM is a capacity-bounded key/value blob store with latency modeling.
// Lightning stores pre-trained DNN parameters here, keyed by model and
// layer. All methods are safe for concurrent use: one DRAM is shared by
// every photonic core shard, exactly as the prototype's single DDR4 bank
// feeds the whole datapath.
type DRAM struct {
	Spec Spec

	mu   sync.RWMutex // guards data, used, rng and fault
	data map[string][]byte
	used int64
	rng  *rand.Rand

	// fault, when non-nil, intercepts every Load (the fault-injection
	// seam internal/fault drives).
	fault ReadFault

	// reads and readBytes count accesses for the energy model.
	reads     atomic.Uint64
	readBytes atomic.Uint64
	// faultedReads counts loads the injected fault hook failed outright —
	// the uncorrectable-read-error count a memory controller would report.
	faultedReads atomic.Uint64
}

// ReadFault intercepts a DRAM read: it receives the key and the stored
// blob and returns the blob to serve — possibly a corrupted copy (bit
// flips) — plus an ok flag; ok=false fails the read outright, modeling an
// uncorrectable DRAM error. The hook must not mutate the stored blob and
// must be safe for concurrent calls (every shard reads the shared DRAM).
type ReadFault func(key string, blob []byte) ([]byte, bool)

// SetReadFault installs (or, with nil, removes) the read-fault hook.
func (d *DRAM) SetReadFault(f ReadFault) {
	d.mu.Lock()
	d.fault = f
	d.mu.Unlock()
}

// FaultedReads returns the count of loads failed by the injected fault
// hook.
func (d *DRAM) FaultedReads() uint64 { return d.faultedReads.Load() }

// New creates a DRAM with the given spec; seed drives latency jitter.
func New(spec Spec, seed uint64) *DRAM {
	return &DRAM{Spec: spec, data: make(map[string][]byte), rng: rand.New(rand.NewPCG(seed, 0xd7a8))}
}

// Used returns the stored byte count.
func (d *DRAM) Used() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.used
}

// Reads returns the access count for the energy model.
func (d *DRAM) Reads() uint64 { return d.reads.Load() }

// ReadBytes returns the bytes-read count for the energy model.
func (d *DRAM) ReadBytes() uint64 { return d.readBytes.Load() }

// Store writes a blob, enforcing capacity. Overwriting a key reuses its
// space.
func (d *DRAM) Store(key string, blob []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delta := int64(len(blob)) - int64(len(d.data[key]))
	if d.used+delta > d.Spec.CapacityBytes {
		return fmt.Errorf("mem: %s full: %d + %d > %d bytes", d.Spec.Name, d.used, delta, d.Spec.CapacityBytes)
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	d.data[key] = cp
	d.used += delta
	return nil
}

// Delete removes a blob.
func (d *DRAM) Delete(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.used -= int64(len(d.data[key]))
	delete(d.data, key)
}

// Load returns a stored blob without copying. Callers must not mutate it.
// An installed ReadFault hook may corrupt the returned data (serving a
// modified copy) or fail the read; failed reads are counted in
// FaultedReads and return (nil, false) exactly as a missing blob would.
func (d *DRAM) Load(key string) ([]byte, bool) {
	d.mu.RLock()
	b, ok := d.data[key]
	f := d.fault
	d.mu.RUnlock()
	if ok {
		d.reads.Add(1)
		d.readBytes.Add(uint64(len(b)))
	}
	if ok && f != nil {
		if b, ok = f(key, b); !ok {
			d.faultedReads.Add(1)
			return nil, false
		}
	}
	return b, ok
}

// jitterDraw returns one uniform draw from the DRAM's rng under the lock.
func (d *DRAM) jitterDraw() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Float64()
}

// Reader streams a stored blob toward a DAC lane in bursts, modeling DRAM
// burstiness: each Fill delivers between 0 and burst samples depending on a
// jittered readiness draw, and respects downstream back-pressure.
type Reader struct {
	dram  *DRAM
	blob  []byte
	pos   int
	burst int
	// StallProb is the per-Fill probability that the DRAM delivers
	// nothing this cycle (bank conflict / refresh).
	StallProb float64
}

// NewReader opens a streaming reader over a stored blob.
func (d *DRAM) NewReader(key string, burst int) (*Reader, error) {
	blob, ok := d.Load(key)
	if !ok {
		return nil, fmt.Errorf("mem: no blob %q in %s", key, d.Spec.Name)
	}
	if burst <= 0 {
		return nil, fmt.Errorf("mem: burst must be positive, got %d", burst)
	}
	return &Reader{dram: d, blob: blob, burst: burst, StallProb: 0.1}, nil
}

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.blob) - r.pos }

// Fill pushes up to one burst of samples into dst, stopping early on
// back-pressure. It returns the number of samples delivered this cycle.
func (r *Reader) Fill(dst *axi.Stream[fixed.Code]) int {
	if r.Remaining() == 0 {
		return 0
	}
	if r.dram.jitterDraw() < r.StallProb {
		return 0 // burstiness: nothing arrives this cycle
	}
	n := 0
	for n < r.burst && r.pos < len(r.blob) {
		if err := dst.Push(axi.Beat[fixed.Code]{Data: fixed.Code(r.blob[r.pos])}); err != nil {
			break
		}
		r.pos++
		n++
	}
	return n
}
