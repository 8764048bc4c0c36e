package main

import (
	"math"
	"sort"

	"eagersgd/internal/trace"
)

// summary is the five-number summary printed beside every published median.
type summary struct {
	n                     int
	min, q1, med, q3, max float64
}

// quantile returns the q-quantile of sorted by linear interpolation between
// order statistics (the "inclusive" method of Python's statistics.quantiles).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	if len(s) == 0 {
		nan := math.NaN()
		return summary{min: nan, q1: nan, med: nan, q3: nan, max: nan}
	}
	return summary{n: len(s), min: s[0], q1: quantile(s, 0.25), med: quantile(s, 0.5), q3: quantile(s, 0.75), max: s[len(s)-1]}
}

// p95 returns the nearest-rank 95th percentile of xs and how many samples lie
// beyond it. A tail percentile is only worth publishing with at least ten
// samples beyond it, i.e. from 200 samples up.
func p95(xs []float64) (value float64, beyond int) {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN(), 0
	}
	idx := int(math.Ceil(0.95*float64(len(s)))) - 1
	return s[idx], len(s) - 1 - idx
}

// firstCrossing returns the x at which the curve first falls to target,
// interpolating linearly between the evaluations either side. ok is false
// when the curve never gets there: the run then has no time to target, which
// the caller counts as a failed run, never as zero. A curve whose first
// point is already at the target crosses at that point's x.
func firstCrossing(points []trace.CurvePoint, target float64) (x float64, ok bool) {
	for i, p := range points {
		if p.Y > target {
			continue
		}
		if i == 0 {
			return p.X, true
		}
		prev := points[i-1]
		return prev.X + (prev.Y-target)/(prev.Y-p.Y)*(p.X-prev.X), true
	}
	return 0, false
}
