package datapath

import (
	"math/bits"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// This file implements the pipeline parallel digital adder module of §5.3
// and Fig 10: a cross-cycle adder-subtractor that accumulates the
// non-negative photonic partial results with their pre-separated signs, and
// an intra-cycle adder tree that folds the 16 parallel lanes into a single
// dot-product value once the whole vector has been accumulated (Listing 3).

// Lanes is the adder parallelism: one adder-subtractor per ADC sample lane.
const Lanes = converter.SamplesPerCycle

// CrossCycleAdder is the 16-lane cross-cycle adder-subtractor. Each lane
// accumulates one sample per digital cycle, adding or subtracting according
// to the paired sign control signal. A count-action rule counts accumulated
// samples; its target — vector_length / num_accumulation_wavelengths,
// i.e. the number of photonic partials per dot product — triggers the
// intra-cycle adder stage.
type CrossCycleAdder struct {
	Module *countaction.Module

	// Gain is the constant multiplier re-applying the detector's
	// full-scale division: when the photonic core accumulates over N
	// wavelengths at an N-lane ADC full scale, every sample carries 1/N
	// of the true partial and the adder multiplies by N. Zero means 1.
	Gain int

	lanes [Lanes]fixed.Acc
	rule  *countaction.Rule
	ready bool
}

// NewCrossCycleAdder builds the adder. partialsPerDot configures the
// count-action target: how many photonic partial results make up one full
// dot product (Listing 3's vector_length / num_accumulation_wavelengths).
func NewCrossCycleAdder(partialsPerDot int) *CrossCycleAdder {
	a := &CrossCycleAdder{Module: countaction.NewModule("cross_cycle_adder_subtractor")}
	a.rule = a.Module.Attach(countaction.New(
		"sum-valid", countaction.Value(partialsPerDot),
		func() { a.ready = true },
	))
	return a
}

// SetPartialsPerDot retargets the rule at runtime (DAG reconfiguration for a
// different layer geometry).
func (a *CrossCycleAdder) SetPartialsPerDot(n int) {
	a.rule.SetTarget(countaction.Value(n))
}

// Accumulate feeds up to Lanes samples (one digital cycle's ADC readout,
// already preamble-aligned) with their sign controls. Samples are 8-bit
// codes zero-padded to 16 bits; lane i adds or subtracts sample i. The
// count-action rule counts the cycle's samples in one evaluation, as the
// hardware counts per clock. It reports whether the dot product completed
// this cycle.
//
//lint:hotpath
func (a *CrossCycleAdder) Accumulate(samples []fixed.Code, negs []bool) bool {
	if len(samples) > Lanes {
		panic("datapath: more samples than adder lanes")
	}
	if len(negs) != len(samples) {
		panic("datapath: sign control width mismatch")
	}
	gain := a.Gain
	if gain < 1 {
		gain = 1
	}
	for i, s := range samples {
		g := int32(s) * int32(gain)
		if g > fixed.AccMax {
			g = fixed.AccMax
		}
		v := fixed.Acc(g)
		if negs[i] {
			a.lanes[i%Lanes] = fixed.SatSub(a.lanes[i%Lanes], v)
		} else {
			a.lanes[i%Lanes] = fixed.SatAdd(a.lanes[i%Lanes], v)
		}
	}
	return a.rule.Add(countaction.Value(len(samples)))
}

// Ready reports whether a completed vector awaits the intra-cycle adder.
func (a *CrossCycleAdder) Ready() bool { return a.ready }

// Drain returns the 16 per-lane partial sums and clears the lanes for the
// next dot product ("stream cross_cycle_adder_subtractor[i].data").
func (a *CrossCycleAdder) Drain() [Lanes]fixed.Acc {
	out := a.lanes
	a.lanes = [Lanes]fixed.Acc{}
	a.ready = false
	return out
}

// Reset clears lanes, rules, and readiness.
func (a *CrossCycleAdder) Reset() {
	a.lanes = [Lanes]fixed.Acc{}
	a.ready = false
	a.Module.Reset()
}

// TreeSumInPlace folds lane partial sums into one value with a binary adder
// tree, inside work (which it clobbers: the engine hands it the cross-cycle
// adder's drained lane array), and returns the result together with the
// pipeline latency in clock cycles: log2(k) for k inputs ("The intra-cycle
// adder requires log k clock cycles, where k is the number of parallel data
// samples in each ADC readout").
func TreeSumInPlace(work []fixed.Acc) (sum fixed.Acc, cycles int) {
	if len(work) == 0 {
		return 0, 0
	}
	for n := len(work); n > 1; cycles++ {
		m := 0
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				work[m] = fixed.SatAdd(work[i], work[i+1])
			} else {
				work[m] = work[i]
			}
			m++
		}
		n = m
	}
	return work[0], cycles
}

// TreeCycles returns the intra-cycle adder latency for k parallel samples
// without performing a sum: ceil(log2(k)).
func TreeCycles(k int) int {
	if k <= 1 {
		return 0
	}
	return bits.Len(uint(k - 1))
}
