//lintpath github.com/lightning-smartnic/lightning/internal/cluster

// Package fixture is the cluster coordinator's lock shape with two locks
// reversed: a re-plan holds Coordinator.replanMu and reaches node.mu two
// calls down, through a helper that holds nothing itself, while a
// readmission probe takes replanMu under node.mu. The tests do not catch
// this inversion, since the two paths rarely interleave.
package fixture

import "sync"

// Coordinator serializes re-planning under replanMu.
type Coordinator struct {
	replanMu sync.Mutex
	nodes    []*node
}

// node guards its install record under mu.
type node struct {
	mu       sync.Mutex
	hasModel bool
}

// replanCurrent holds replanMu across the re-plan.
func (c *Coordinator) replanCurrent() {
	c.replanMu.Lock()
	defer c.replanMu.Unlock()
	c.replanLocked()
}

// replanLocked takes no lock itself; its callers hold replanMu.
func (c *Coordinator) replanLocked() {
	for _, n := range c.nodes {
		c.install(n)
	}
}

// install records the install under the node's lock.
func (c *Coordinator) install(n *node) {
	n.mu.Lock()
	n.hasModel = true
	n.mu.Unlock()
}

// readmissionProbe takes replanMu while holding node.mu: the reverse order.
func (c *Coordinator) readmissionProbe(n *node) bool {
	n.mu.Lock()
	c.replanMu.Lock()
	has := n.hasModel
	c.replanMu.Unlock()
	n.mu.Unlock()
	return has
}
