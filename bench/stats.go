package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of the
// samples: the smallest sample with at least p of the samples at or below
// it. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// supported reports whether the p-quantile of n samples has at least ten
// samples beyond it — the rule below which a tail percentile is printed
// with a warning beside its sample count.
func supported(p float64, n int) bool {
	i := int(math.Ceil(p * float64(n)))
	return n-i >= 10
}

// median returns the middle sample (mean of the middle two for an even
// count), 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), which
// is what the acceptance driver computes spreads from. Fewer than two
// samples have no quartiles; all three are the sample (or 0).
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median, 0 when the
// median is 0.
func spread(samples []float64) float64 {
	q1, q2, q3 := quartiles(samples)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
