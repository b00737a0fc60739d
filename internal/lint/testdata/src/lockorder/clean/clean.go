//lintpath github.com/lightning-smartnic/lightning/internal/nic

// Package fixture exercises lockorder's clean cases: one total lock order
// held everywhere (including through a callee) and sequential
// release-then-acquire.
package fixture

import "sync"

// Registry guards its model table; Stats guards its counters.
type Registry struct {
	mu    sync.Mutex
	stats *Stats
}

// Stats is the lock-bearing counter block.
type Stats struct {
	mu     sync.Mutex
	served int
}

// Snapshot takes Registry.mu then Stats.mu.
func (r *Registry) Snapshot() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.mu.Lock()
	defer r.stats.mu.Unlock()
	return r.stats.served
}

// bump acquires Stats.mu; callers holding Registry.mu extend the same
// Registry.mu → Stats.mu order interprocedurally.
func (r *Registry) bump() {
	r.stats.mu.Lock()
	r.stats.served++
	r.stats.mu.Unlock()
}

// Record matches Snapshot's order through the bump call.
func (r *Registry) Record() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bump()
}

// Tally releases Stats.mu before taking Registry.mu — sequential, not
// nested, so no edge forms in either direction.
func (r *Registry) Tally() int {
	r.stats.mu.Lock()
	n := r.stats.served
	r.stats.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return n
}

// Arm hands a timer a closure that takes Registry.mu when it fires, later
// and on the timer's goroutine: the closure's locks are not acquired under
// the lock Arm holds.
func (r *Registry) Arm(after func(func())) {
	r.mu.Lock()
	defer r.mu.Unlock()
	after(func() { r.Snapshot() })
}
