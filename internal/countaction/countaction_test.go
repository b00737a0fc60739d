package countaction

import (
	"testing"
	"testing/quick"
)

func TestRuleFiresAtTarget(t *testing.T) {
	var fired int
	r := New("r", 3, func() { fired++ })
	if r.Add(1) || r.Add(1) {
		t.Fatal("fired before target")
	}
	if !r.Add(1) {
		t.Fatal("did not fire at target")
	}
	if fired != 1 || r.Fires != 1 {
		t.Errorf("fired=%d Fires=%d", fired, r.Fires)
	}
	if r.Count() != 0 {
		t.Errorf("count not reset: %d", r.Count())
	}
}

func TestRuleFiresRepeatedly(t *testing.T) {
	r := New("r", 2, nil)
	fires := 0
	for i := 0; i < 10; i++ {
		if r.Add(1) {
			fires++
		}
	}
	if fires != 5 {
		t.Errorf("fires = %d, want 5", fires)
	}
}

func TestRuleOvershootFiresOnce(t *testing.T) {
	// Counting Σ DAC[i].valid can add multiple per cycle; an overshoot
	// still fires once and resets to zero.
	r := New("r", 4, nil)
	if !r.Add(7) {
		t.Fatal("overshoot did not fire")
	}
	if r.Count() != 0 {
		t.Errorf("count after overshoot = %d, want 0", r.Count())
	}
	if r.Fires != 1 {
		t.Errorf("Fires = %d, want 1", r.Fires)
	}
}

func TestDisabledRuleNeverFires(t *testing.T) {
	r := New("r", 0, func() { t.Fatal("disabled rule fired") })
	for i := 0; i < 5; i++ {
		if r.Add(10) {
			t.Fatal("disabled rule reported fire")
		}
	}
	if r.Count() != 0 {
		t.Errorf("disabled rule accumulated count %d", r.Count())
	}
}

func TestObserve(t *testing.T) {
	r := New("r", 2, nil)
	if r.Observe(false) {
		t.Error("false observation fired")
	}
	if r.Count() != 0 {
		t.Error("false observation counted")
	}
	r.Observe(true)
	if !r.Observe(true) {
		t.Error("second true observation should fire")
	}
}

func TestCheckPerCycleSemantics(t *testing.T) {
	var fired int
	r := New("streamer", 4, func() { fired++ })
	// Three of four DACs valid: must not fire, and must not carry over.
	if r.Check(3) {
		t.Fatal("fired below target")
	}
	if r.Count() != 0 {
		t.Fatal("per-cycle count carried over")
	}
	if !r.Check(4) {
		t.Fatal("did not fire at target")
	}
	if !r.Check(5) {
		t.Fatal("did not fire above target")
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	// Disabled rule never fires on Check either.
	d := New("off", 0, nil)
	if d.Check(100) {
		t.Error("disabled rule fired on Check")
	}
}

// TestBoundRuleRuntimeReconfig retargets a rule mid-count, as the DAG loader
// does when a packet for a different model arrives: the new target takes
// effect at the rule's next evaluation.
func TestBoundRuleRuntimeReconfig(t *testing.T) {
	r := New("r", 3, nil)
	r.Add(1)
	r.Add(1)
	r.SetTarget(5)
	if r.Add(1) {
		t.Fatal("fired at old target after reconfiguration")
	}
	if !r.Add(2) {
		t.Fatal("did not fire at new target")
	}
}

func TestSetTargetWritesThrough(t *testing.T) {
	r := New("r", 1, nil)
	r.SetTarget(4)
	if r.Target() != 4 {
		t.Errorf("Target = %d, want 4", r.Target())
	}
}

func TestRuleReset(t *testing.T) {
	r := New("r", 5, nil)
	r.Add(3)
	r.Add(5) // fires
	r.Reset()
	if r.Count() != 0 || r.Fires != 0 {
		t.Errorf("Reset left count=%d fires=%d", r.Count(), r.Fires)
	}
}

func TestModuleAttachAndSnapshot(t *testing.T) {
	m := NewModule("streamer")
	m.Attach(New("valid-count", 4, nil))
	m.Attach(New("beat-count", 2, nil))
	m.Rule("valid-count").Add(2)
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Attach order, not name order: valid-count first.
	if snap[0].Name != "valid-count" || snap[1].Name != "beat-count" {
		t.Errorf("snapshot order: %v, %v", snap[0].Name, snap[1].Name)
	}
	if snap[0].Count != 2 || snap[0].Target != 4 {
		t.Errorf("snapshot state: %+v", snap[0])
	}
	if m.Rule("missing") != nil {
		t.Error("missing rule should be nil")
	}
}

func TestModuleDuplicatePanics(t *testing.T) {
	m := NewModule("m")
	m.Attach(New("x", 1, nil))
	defer func() {
		if recover() == nil {
			t.Error("duplicate rule name did not panic")
		}
	}()
	m.Attach(New("x", 1, nil))
}

func TestModuleReset(t *testing.T) {
	m := NewModule("m")
	r := m.Attach(New("x", 2, nil))
	r.Add(1)
	m.Reset()
	if r.Count() != 0 {
		t.Error("module reset did not clear rule")
	}
}

// Property: total increments equal target*fires + residual count for any
// positive-delta sequence with a fixed positive target.
func TestConservationInvariant(t *testing.T) {
	f := func(deltas []uint8, target uint8) bool {
		tgt := Value(target%16) + 1
		r := New("r", tgt, nil)
		var total Value
		var overshoot Value
		for _, d := range deltas {
			dd := Value(d%5) + 1
			before := r.Count()
			total += dd
			if r.Add(dd) {
				// Account for counts discarded by the reset.
				overshoot += before + dd - tgt
			}
		}
		return total == Value(r.Fires)*tgt+r.Count()+overshoot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestModuleOrderIsAttachOrder: Snapshot lists the rules in the order they
// were attached, whatever their names sort to, before and after a Reset that
// clears every one of them, and Rule finds each by name.
func TestModuleOrderIsAttachOrder(t *testing.T) {
	names := []string{"shift-03", "zeta", "shift-00", "alpha", "shift-15", "m"}
	m := NewModule("ordered")
	for i, name := range names {
		m.Attach(New(name, Value(i+2), nil)).Add(1)
	}
	check := func(when string, count Value) {
		snap := m.Snapshot()
		if len(snap) != len(names) {
			t.Fatalf("%s: snapshot len = %d, want %d", when, len(snap), len(names))
		}
		for i, name := range names {
			if snap[i].Name != name || snap[i].Target != Value(i+2) || snap[i].Count != count {
				t.Errorf("%s: snapshot[%d] = %+v, want %s target %d count %d", when, i, snap[i], name, i+2, count)
			}
			if r := m.Rule(name); r == nil || r.Name != name {
				t.Errorf("%s: Rule(%q) = %v", when, name, r)
			}
		}
	}
	check("attached", 1)
	m.Reset()
	check("reset", 0)
}
