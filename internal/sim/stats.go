package sim

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates scalar observations and reports summary statistics.
// It keeps all values so exact percentiles can be reported; experiments
// in this repository observe at most a few million samples.
type Sample struct {
	Name     string
	vals     []float64
	sorted   bool
	sum      float64
	min, max float64 // maintained incrementally by Observe
}

// NewSample returns an empty named sample.
func NewSample(name string) *Sample { return &Sample{Name: name} }

// Observe records one value.
func (s *Sample) Observe(v float64) {
	if len(s.vals) == 0 || v < s.min {
		s.min = v
	}
	if len(s.vals) == 0 || v > s.max {
		s.max = v
	}
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// ObserveTime records a Time value in nanoseconds.
func (s *Sample) ObserveTime(t Time) { s.Observe(float64(t)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Min returns the smallest observation, or 0 with none. O(1): the
// minimum is tracked incrementally, no sort is forced.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with none. O(1): the
// maximum is tracked incrementally, no sort is forced.
func (s *Sample) Max() float64 { return s.max }

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted observations.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.vals[rank-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// String summarizes the sample on one line.
func (s *Sample) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.3g min=%.3g p50=%.3g p99=%.3g max=%.3g",
		s.Name, s.N(), s.Mean(), s.Min(), s.Percentile(50), s.Percentile(99), s.Max())
}
