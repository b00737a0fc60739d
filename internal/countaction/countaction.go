// Package countaction implements Lightning's key primitive: the
// reconfigurable count-action abstraction of §5.
//
// A count-action unit has three components (Fig 6): a set of variables to
// count, a set of target results, and a set of actions to trigger when the
// accumulated count reaches the target. The count accumulates across digital
// datapath clock cycles; once it reaches the target it resets to zero and the
// actions fire — without any control-plane involvement. This is how the
// datapath tracks each inference request's computation DAG at line rate.
//
// Unlike Tofino's match-action units, count-action units are reconfigurable
// at runtime (§5.4): Rule.SetTarget retargets a rule mid-count, taking effect
// at its next evaluation with no pipeline flush. The datapath retargets the
// cross-cycle adder's rule this way to the length of every dot's segment:
// reassembling a layer in one walk, it settles the dots it sums in closed
// form with one Fire and leaves the rule targeted at the last dot's length.
package countaction

import "fmt"

// Value is the width of a count register. The RTL uses 32-bit counters; we
// use int64 so simulation-scale counts cannot wrap.
type Value = int64

// Action is the operation a rule triggers when its count reaches its target,
// e.g. "stream DAC[i].data into photonic cores" (Listing 1).
type Action func()

// Rule is a single count-action unit. A Rule counts via Add/Observe each
// datapath cycle; when the count reaches the target it resets to zero and
// the action fires. A target of zero disables the rule (it never fires),
// which is how unused datapath template slots sit idle.
type Rule struct {
	// Name identifies the rule in snapshots and errors.
	Name string

	// Fires counts how many times the rule has triggered since Reset.
	Fires uint64

	count  Value
	target Value

	action Action
}

// New creates a rule with the given target.
func New(name string, target Value, action Action) *Rule {
	return &Rule{Name: name, target: target, action: action}
}

// Target returns the rule's current target.
func (r *Rule) Target() Value { return r.target }

// SetTarget updates the target; the rule's next evaluation counts toward it.
func (r *Rule) SetTarget(t Value) { r.target = t }

// Count returns the current accumulated count.
func (r *Rule) Count() Value { return r.count }

// Add accumulates delta into the count and evaluates the rule: if the count
// has reached the target, the count resets to zero, the action fires, and
// Add reports true. Counts that overshoot the target (possible when counting
// multi-valued variables like Σ DAC[i].valid) still fire once and reset, per
// the semantics of §5 ("Once the result reaches the target, the count
// variable is set back to zero, and the actions are triggered").
func (r *Rule) Add(delta Value) bool {
	t := r.Target()
	if t <= 0 {
		// Disabled rule: discard counts so a later reconfiguration
		// starts clean.
		r.count = 0
		return false
	}
	r.count += delta
	if r.count < t {
		return false
	}
	r.count = 0
	r.Fires++
	if r.action != nil {
		r.action()
	}
	return true
}

// Fire records n evaluations that each reach the target, in one step: what
// n Adds of a full count leave. The count resets to zero, the action fires
// n times and Fires grows by n; n = 0 changes nothing. A rule retargeted
// before every evaluation to exactly what that evaluation counts fires on
// each, so a datapath that settles many such evaluations at once — the
// cross-cycle adder reassembling a layer's dots — fires it this way.
func (r *Rule) Fire(n uint64) {
	if n == 0 {
		return
	}
	r.count = 0
	r.Fires += n
	if r.action != nil {
		for range n {
			r.action()
		}
	}
}

// Check evaluates a per-cycle count: the counted variable is recomputed
// every cycle rather than accumulated (Listing 1's Σ DAC[i].valid is this
// kind of count — three-of-four valid DACs this cycle must not carry over
// into the next cycle). The rule fires when value reaches the target; the
// count register always ends the cycle at zero.
func (r *Rule) Check(value Value) bool {
	t := r.Target()
	r.count = 0
	if t <= 0 || value < t {
		return false
	}
	r.Fires++
	if r.action != nil {
		r.action()
	}
	return true
}

// Observe counts one occurrence of a condition this cycle: Add(1) when cond
// is true. It reports whether the rule fired.
func (r *Rule) Observe(cond bool) bool {
	if !cond {
		return false
	}
	return r.Add(1)
}

// Reset clears the count and fire statistics (a datapath reset).
func (r *Rule) Reset() {
	r.count = 0
	r.Fires = 0
}

// RuleState is a diagnostic snapshot of one rule.
type RuleState struct {
	Name   string
	Count  Value
	Target Value
	Fires  uint64
}

// Module is a named group of count-action rules forming one datapath module
// (e.g. the synchronous_data_streamer of Listing 1). Modules exist for
// introspection and bulk reset; rules are evaluated by the datapath logic
// that owns them. Rules are kept in the order they were attached, which is
// the order Reset and Snapshot walk them in.
type Module struct {
	Name  string
	rules []*Rule
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// Attach registers a rule with the module. It panics on duplicate names,
// which would indicate a datapath wiring bug.
func (m *Module) Attach(r *Rule) *Rule {
	if m.Rule(r.Name) != nil {
		panic(fmt.Sprintf("countaction: duplicate rule %q in module %q", r.Name, m.Name))
	}
	m.rules = append(m.rules, r)
	return r
}

// Rule returns the named rule, or nil.
func (m *Module) Rule(name string) *Rule {
	for _, r := range m.rules {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Reset resets every rule in the module.
func (m *Module) Reset() {
	for _, r := range m.rules {
		r.Reset()
	}
}

// Snapshot returns the state of every rule, in attach order, for monitoring
// and tests.
//
//lint:allow reachability TestModuleAttachAndSnapshot, TestDetectorCountTargets and FuzzDetectorMaskEquivalence read rule state through it
func (m *Module) Snapshot() []RuleState {
	out := make([]RuleState, 0, len(m.rules))
	for _, r := range m.rules {
		out = append(out, RuleState{Name: r.Name, Count: r.Count(), Target: r.Target(), Fires: r.Fires})
	}
	return out
}
