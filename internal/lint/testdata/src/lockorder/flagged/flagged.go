//lintpath github.com/lightning-smartnic/lightning/internal/nic

// Package fixture exercises lockorder's flagged cases: a lock-order cycle
// closed interprocedurally and a self-deadlock. Copies of lock-bearing
// values are go vet's copylocks check, not this analyzer's.
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

// Snapshot takes Registry.mu then Stats.mu — one direction of the cycle.
func (r *Registry) Snapshot() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.mu.Lock()
	defer r.stats.mu.Unlock()
	return r.stats.served
}

// relock acquires Registry.mu on behalf of callers.
func (r *Registry) relock() {
	r.mu.Lock()
	defer r.mu.Unlock()
}

// Record holds Stats.mu across the relock call, closing the cycle
// interprocedurally: Stats.mu → Registry.mu against Snapshot's
// Registry.mu → Stats.mu.
func (r *Registry) Record() {
	r.stats.mu.Lock()
	defer r.stats.mu.Unlock()
	r.relock()
	r.stats.served++
}

// Reenter locks a mutex it already holds.
func (s *Stats) Reenter() {
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}
