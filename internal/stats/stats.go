// Package stats provides the small statistical helpers the analysis
// needs: empirical CDFs (Figure 7), quantiles and summary statistics
// (§5.5's mean/std of the deficient share).
package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the sample.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// F returns P(X <= x).
func (e *ECDF) F(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Survival returns P(X > x), the 1-CDF used by Figure 7.
func (e *ECDF) Survival(x float64) float64 { return 1 - e.F(x) }

// Quantile returns the q-quantile (0 <= q <= 1).
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := q * float64(len(e.sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return e.sorted[lo]
	}
	frac := idx - float64(lo)
	return e.sorted[lo]*(1-frac) + e.sorted[hi]*frac
}

// Summary holds the usual summary statistics.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Summarize computes summary statistics of a sample.
func Summarize(sample []float64) Summary {
	s := Summary{N: len(sample)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = sample[0], sample[0]
	sum := 0.0
	for _, v := range sample {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range sample {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N))
	}
	return s
}
