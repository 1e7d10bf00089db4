// Package stats provides the small set of descriptive statistics the
// null models and graph summaries need: means, standard deviations and
// integer histograms (degree distributions), plus the shared seed
// mixer.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when
// fewer than two samples are given.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MeanStd returns both the mean and the population standard deviation.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), StdDev(xs)
}

// IntHistogram counts occurrences of small non-negative integers. It is
// used for degree distributions: Counts[d] is the number of vertices of
// degree d.
type IntHistogram struct {
	Counts []int64
	Total  int64
}

// Observe adds one occurrence of v (v ≥ 0) to the histogram.
func (h *IntHistogram) Observe(v int) {
	for v >= len(h.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[v]++
	h.Total++
}

// P returns the empirical probability of value v.
func (h *IntHistogram) P(v int) float64 {
	if h.Total == 0 || v < 0 || v >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[v]) / float64(h.Total)
}

// Mean returns the mean of the observed values.
func (h *IntHistogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	s := 0.0
	for v, c := range h.Counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.Total)
}
