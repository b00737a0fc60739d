package cyclesim

import (
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

func TestRegSemantics(t *testing.T) {
	var r Reg[int]
	r.SetD(7)
	if r.Q() != 0 {
		t.Error("D visible at Q before the edge")
	}
	if r.D() != 7 {
		t.Error("D readback wrong")
	}
	r.Latch()
	if r.Q() != 7 {
		t.Error("Q not updated at the edge")
	}
}

// counterMod increments a register through itself: a 1-cycle feedback loop.
type counterMod struct{ r Reg[int] }

func (c *counterMod) Eval()  { c.r.SetD(c.r.Q() + 1) }
func (c *counterMod) Latch() { c.r.Latch() }

func TestTestbenchStepAndRun(t *testing.T) {
	var tb Testbench
	c := &counterMod{}
	tb.Add(c)
	tb.Run(5)
	if c.r.Q() != 5 {
		t.Errorf("counter = %d after 5 cycles", c.r.Q())
	}
	if tb.Cycles != 5 {
		t.Errorf("Cycles = %d", tb.Cycles)
	}
	ok := tb.RunUntil(func() bool { return c.r.Q() >= 12 }, 100)
	if !ok || c.r.Q() != 12 {
		t.Errorf("RunUntil stopped at %d (ok=%v)", c.r.Q(), ok)
	}
	if tb.RunUntil(func() bool { return false }, 3) {
		t.Error("impossible predicate reported true")
	}
}

// pipelineMod chains two registers: data needs two edges to traverse.
type pipelineMod struct {
	in     int
	s1, s2 Reg[int]
}

func (p *pipelineMod) Eval() {
	p.s2.SetD(p.s1.Q())
	p.s1.SetD(p.in)
}
func (p *pipelineMod) Latch() { p.s1.Latch(); p.s2.Latch() }

func TestTwoStagePipelineLatency(t *testing.T) {
	var tb Testbench
	p := &pipelineMod{in: 42}
	tb.Add(p)
	tb.Step()
	if p.s2.Q() == 42 {
		t.Error("value traversed two registers in one cycle")
	}
	tb.Step()
	if p.s2.Q() != 42 {
		t.Errorf("value did not arrive after two cycles: %d", p.s2.Q())
	}
}

func randLayer(rng *rand.Rand, out, in int) (fixed.Matrix, []fixed.Code) {
	w := make([][]fixed.Signed, out)
	for j := range w {
		w[j] = make([]fixed.Signed, in)
		for i := range w[j] {
			w[j][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(200)), Neg: rng.IntN(2) == 1}
		}
	}
	x := make([]fixed.Code, in)
	for i := range x {
		x[i] = fixed.Code(rng.IntN(256))
	}
	return w, x
}

// TestFCPipeMatchesEngineBitExact is the architectural-model ↔ RTL
// cross-check: the clocked pipeline and the behavioural engine must produce
// identical accumulator outputs on a noise-free channel.
func TestFCPipeMatchesEngineBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	for trial := 0; trial < 5; trial++ {
		out := 3 + rng.IntN(5)
		in := 8 + rng.IntN(40)
		weights, x := randLayer(rng, out, in)

		// Behavioural engine.
		core, err := photonic.NewCore(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		engine := datapath.NewEngine(core, 1)
		ref := engine.ExecuteFC(weights, x, datapath.ActIdentity, 0)

		// Clocked pipeline.
		pipe, err := NewFCPipe(2)
		if err != nil {
			t.Fatal(err)
		}
		pipe.Load(weights, x)
		var tb Testbench
		tb.Add(pipe)
		if !tb.RunUntil(pipe.Done, 100000) {
			t.Fatalf("trial %d: pipeline did not finish", trial)
		}
		if len(pipe.Out) != len(ref.Raw) {
			t.Fatalf("trial %d: %d outputs, want %d", trial, len(pipe.Out), len(ref.Raw))
		}
		for j := range ref.Raw {
			if pipe.Out[j] != ref.Raw[j] {
				t.Errorf("trial %d neuron %d: pipeline %d != engine %d",
					trial, j, pipe.Out[j], ref.Raw[j])
			}
		}
	}
}

func TestFCPipePipelining(t *testing.T) {
	// Pipeline latency: with S analog steps total, results stream out in
	// ≈S+2 cycles (fill latency 2) rather than 3·S.
	rng := rand.New(rand.NewPCG(9, 9))
	weights, x := randLayer(rng, 4, 32)
	pipe, err := NewFCPipe(2)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Load(weights, x)
	totalSteps := len(pipe.queue)
	var tb Testbench
	tb.Add(pipe)
	if !tb.RunUntil(pipe.Done, 100000) {
		t.Fatal("pipeline did not finish")
	}
	if int(tb.Cycles) > totalSteps+3 {
		t.Errorf("pipeline took %d cycles for %d steps (fill latency should be 2)",
			tb.Cycles, totalSteps)
	}
	if int(tb.Cycles) < totalSteps {
		t.Errorf("pipeline finished in %d cycles, impossible for %d steps", tb.Cycles, totalSteps)
	}
}

func TestFCPipeAllZeroNeuron(t *testing.T) {
	pipe, err := NewFCPipe(2)
	if err != nil {
		t.Fatal(err)
	}
	weights := [][]fixed.Signed{
		make([]fixed.Signed, 4), // all-zero row
		{{Mag: 100}, {Mag: 100}, {Mag: 100}, {Mag: 100}},
	}
	x := []fixed.Code{255, 255, 255, 255}
	pipe.Load(weights, x)
	var tb Testbench
	tb.Add(pipe)
	if !tb.RunUntil(pipe.Done, 1000) {
		t.Fatal("pipeline did not finish")
	}
	if pipe.Out[0] != 0 {
		t.Errorf("all-zero neuron = %d", pipe.Out[0])
	}
	if pipe.Out[1] < 350 {
		t.Errorf("active neuron = %d, want ≈400", pipe.Out[1])
	}
}

func TestFCPipeReload(t *testing.T) {
	// Loading a second layer reuses the pipeline cleanly.
	rng := rand.New(rand.NewPCG(2, 2))
	pipe, err := NewFCPipe(2)
	if err != nil {
		t.Fatal(err)
	}
	var tb Testbench
	tb.Add(pipe)
	for round := 0; round < 3; round++ {
		weights, x := randLayer(rng, 2, 16)
		pipe.Load(weights, x)
		if !tb.RunUntil(pipe.Done, 10000) {
			t.Fatalf("round %d did not finish", round)
		}
		if len(pipe.Out) != 2 {
			t.Fatalf("round %d outputs = %d", round, len(pipe.Out))
		}
	}
}
