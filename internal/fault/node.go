package fault

import "time"

// Node-level faults: the cluster-plane mirror of the shard-level Fault
// machinery. Where a Fault corrupts one shard's hardware inside a NIC, a
// NodeFault degrades a whole serving node as the network sees it — crash,
// partition, slow node — through the surfaces a cluster harness owns: the
// node's fault.Conn and a kill switch for its process (or in-process serve
// loop). The same Plan and Runner schedule them, so a cluster chaos run is a
// regression test. Wrong compute on a node is a shard fault on its NIC
// (BiasRunaway), injected with NIC.InjectFault.

// NodeTarget bundles the surfaces a node fault can act on. Either may be nil
// when the harness lacks that surface; faults must check.
type NodeTarget struct {
	// Conn is the fault wrapper around the node's serving socket.
	Conn *Conn
	// Crash terminates the node's serve loop (kill -9 for an external
	// process, context cancel for an in-process one).
	Crash func() error
}

// NodeFault is one injectable node-level fault.
type NodeFault interface {
	// Name identifies the fault in logs and Fired records.
	Name() string
	// ApplyNode injects the fault into the node's surfaces.
	ApplyNode(t NodeTarget) error
}

// NodeCrash kills the node outright — the fail-stop failure a coordinator
// must re-plan around.
type NodeCrash struct{}

// Name implements NodeFault.
func (NodeCrash) Name() string { return "node-crash" }

// ApplyNode implements NodeFault.
func (NodeCrash) ApplyNode(t NodeTarget) error {
	if t.Crash == nil {
		return errNoSurface("node-crash", "crash hook")
	}
	return t.Crash()
}

// NodePartition blackholes the node's traffic in both directions (On=true),
// or heals the partition (On=false). The node itself keeps running — the
// gray failure where health must be judged from outside.
type NodePartition struct{ On bool }

// Name implements NodeFault.
func (f NodePartition) Name() string {
	if f.On {
		return "node-partition"
	}
	return "node-partition-heal"
}

// ApplyNode implements NodeFault.
func (f NodePartition) ApplyNode(t NodeTarget) error {
	if t.Conn == nil {
		return errNoSurface(f.Name(), "fault.Conn")
	}
	t.Conn.Blackhole(f.On)
	return nil
}

// NodeSlow injects rx/tx latency plus seeded jitter on the node's socket —
// the straggler that blows per-hop deadlines without ever failing a query
// outright. Zero values heal a previously slow node.
type NodeSlow struct {
	Latency, Jitter time.Duration
}

// Name implements NodeFault.
func (NodeSlow) Name() string { return "node-slow" }

// ApplyNode implements NodeFault.
func (f NodeSlow) ApplyNode(t NodeTarget) error {
	if t.Conn == nil {
		return errNoSurface("node-slow", "fault.Conn")
	}
	t.Conn.SetLatency(f.Latency, f.Jitter, f.Latency, f.Jitter)
	return nil
}

// NodeApplier injects a node fault into one cluster node's surfaces. The
// cluster chaos harness implements it over its per-node NodeTargets.
type NodeApplier interface {
	InjectNodeFault(node int, f NodeFault) error
}
