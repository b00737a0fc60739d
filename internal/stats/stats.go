// Package stats provides the statistical helpers used across Lightning's
// experiment harnesses: moments, histograms, empirical CDFs, percentiles, and
// Gaussian fitting (used to calibrate the photonic noise model of §7 and the
// latency CDF of Fig 4).
package stats

import (
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Gaussian is a fitted normal distribution, as used for Lightning's analog
// noise model (Fig 18: mean 2.32, σ 1.65 on the 0–255 code scale).
type Gaussian struct {
	Mean  float64
	Sigma float64
}

// FitGaussian fits a Gaussian to samples by the method of moments, exactly
// how the paper calibrates the testbed noise model ("we measure the photonic
// multiplication noise on our testbed and fit a Gaussian distribution").
func FitGaussian(xs []float64) Gaussian {
	return Gaussian{Mean: Mean(xs), Sigma: StdDev(xs)}
}

// Histogram is a fixed-width binned histogram.
type Histogram struct {
	Lo, Hi float64 // value range covered
	Counts []int   // per-bin counts
	N      int     // total samples (including clamped outliers)
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [lo, hi]; samples outside the range are clamped into the edge bins.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: NewHistogram needs hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.N++
	}
	return h
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Density returns the probability density of bin i (normalized so the
// histogram integrates to 1), comparable against a fitted Gaussian density.
func (h *Histogram) Density(i int) float64 {
	if h.N == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.N) * w)
}

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF; the input is copied and sorted.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Percentile returns the p-quantile (p in [0,1]) by nearest-rank.
func (c *CDF) Percentile(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Median is the 50th percentile.
func (c *CDF) Median() float64 { return c.Percentile(0.5) }

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// ASCIIBar renders a crude fixed-width proportional bar for terminal
// experiment reports.
func ASCIIBar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(math.Round(frac * float64(width)))
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
