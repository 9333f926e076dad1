package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two nearest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// median sorts a copy of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it — fewer and the figure is one or two
// outliers, not a percentile — and returns it with its value. With fewer
// than 40 samples nothing above the median qualifies and p is 50.
func tailPercentile(sorted []float64) (p, value float64) {
	n := float64(len(sorted))
	for _, p := range tailLadder {
		if n*(100-p) >= 1000-1e-6 { // ten or more samples beyond p, tolerant of 100-99.9 ≠ 0.1
			return p, quantile(sorted, p/100)
		}
	}
	return 50, quantile(sorted, 0.5)
}

// selfTime subtracts the nested calls' time from the outer call's. A
// negative remainder means the parts were measured larger than the whole
// (different cache state, overlap, noise): it is clamped to zero and
// returned as deficit so the report can flag it instead of hiding it.
func selfTime(outer float64, nested ...float64) (self, deficit float64) {
	self = outer
	for _, n := range nested {
		self -= n
	}
	if self < 0 {
		return 0, -self
	}
	return self, 0
}
