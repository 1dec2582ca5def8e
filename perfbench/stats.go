package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// withFailures appends one latency beyond any limit per failed
// operation: a request that fails counts as missing every latency limit.
func withFailures(lat []float64, failed int) []float64 {
	for i := 0; i < failed; i++ {
		lat = append(lat, math.MaxFloat64)
	}
	return lat
}

// rank returns the nearest-rank q-quantile of xs (0 for no samples): the
// smallest sample with at least a q share of the samples at or below it.
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle sample, or the mean of the two middle ones (0 for
// no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return s[n/2-1]/2 + s[n/2]/2 // halves first: two failure latencies must not overflow
}

// tailPercentile is the highest whole percentile of n samples that still
// has at least ten samples above it, capped at 99; 0 when n is too small
// for any tail beyond the median.
func tailPercentile(n int) int {
	if n < 20 {
		return 0
	}
	return min(int(math.Floor(100*float64(n-10)/float64(n))), 99)
}
