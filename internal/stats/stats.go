// Package stats provides the measurement utilities behind the experiment
// harness: repeated-run samples, summary statistics, speed-up computation,
// and the fixed-width text tables all experiment output is rendered with.
//
// The paper runs every configuration five times per platform and reports
// averages plus a relative "variance" column (relative difference of an
// implementation's speed-up to Implementation 1's); Sample and RelDiff
// implement exactly those computations.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates repeated measurements of one quantity.
type Sample struct {
	values []float64
}

// Add appends a measurement.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// AddDuration appends a time measurement in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// measurements).
func (s *Sample) Variance() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.values {
		d := v - m
		acc += d * d
	}
	return acc / float64(n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest measurement, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest measurement, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Median returns the middle measurement (mean of the two middle ones for
// even sizes), or 0 for an empty sample.
func (s *Sample) Median() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Speedup returns baseline/measured — the paper's speed-up definition
// (sequential time over parallel time). It returns 0 when measured is 0.
func Speedup(baseline, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return baseline / measured
}

// RelDiff returns (v-ref)/ref, the paper's "variance" column: the relative
// difference of an implementation's speed-up from the reference
// implementation's. It returns 0 when ref is 0.
func RelDiff(v, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (v - ref) / ref
}

// FormatSeconds renders a duration in seconds with one decimal, the paper's
// table format ("46.7").
func FormatSeconds(seconds float64) string { return fmt.Sprintf("%.1f", seconds) }

// FormatSpeedup renders a speed-up with two decimals ("4.71").
func FormatSpeedup(s float64) string { return fmt.Sprintf("%.2f", s) }

// FormatPercent renders a relative difference as a signed percentage with
// one decimal ("+16.5%", "0.0%").
func FormatPercent(p float64) string {
	pct := p * 100
	if pct == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%+.1f%%", pct)
}
