package fault

import "sync"

// ReadErrorBurst fails the next Reads loads from the DRAM weight store —
// an uncorrectable-read-error burst (a failing rank, a controller brownout).
// Queries served during the burst fail loudly with Err verdicts; once the
// burst is exhausted the hook turns inert and reads succeed again, so the
// health subsystem's probation trials recover the shards. The DRAM is
// shared, so this fault degrades every shard at once regardless of the
// event's Shard field.
type ReadErrorBurst struct {
	// Reads is how many loads fail before the burst is spent.
	Reads uint64
}

// Name implements Fault.
func (f ReadErrorBurst) Name() string { return "mem-read-error-burst" }

// Apply implements Fault.
func (f ReadErrorBurst) Apply(t Target) error {
	if t.DRAM == nil {
		return errNoSurface(f.Name(), "DRAM")
	}
	var mu sync.Mutex
	left := f.Reads
	t.DRAM.SetReadFault(func(key string, blob []byte) ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		if left > 0 {
			left--
			return nil, false
		}
		return blob, true
	})
	return nil
}
