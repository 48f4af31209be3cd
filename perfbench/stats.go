package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for the sample to support it.
const minBeyond = 10

// percentile returns the nearest-rank q-percentile (0 < q <= 1) of the
// samples: the smallest value with at least q*n samples at or below it,
// which leaves n - ceil(q*n) samples beyond it. It sorts a copy.
func percentile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(n, q)-1]
}

// rank is the 1-based nearest rank of the q-percentile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailQuantile is the percentile reported as a run's tail: want (p99)
// when the sample leaves minBeyond samples beyond it, otherwise the
// highest percentile that does, and never below the median.
func tailQuantile(n int, want float64) float64 {
	if n-rank(n, want) >= minBeyond {
		return want
	}
	return math.Max(float64(n-minBeyond)/float64(n), 0.5)
}

// tail is the p99 of the samples, or the highest supported percentile
// below it, together with the percentile used.
func tail(samples []float64) (value, q float64) {
	q = tailQuantile(len(samples), 0.99)
	return percentile(samples, q), q
}

// windowSize is the fewest samples a window needs for its p99 to leave
// minBeyond samples beyond it.
const windowSize = 1000

// windowedTail is a run's reported tail: the samples, in the order they
// were taken, are split into consecutive windows of at least windowSize,
// and the median of the windows' p99s is returned with the window count.
// On a shared host a stall of a tenth of a second delays a percent of a
// run's reads at once; it moves the p99 of the window it lands in, not
// the median over windows. Runs with fewer than two windows' worth of
// samples report tail.
func windowedTail(samples []float64) (value, q float64, windows int) {
	k := len(samples) / windowSize
	if k < 2 {
		v, q := tail(samples)
		return v, q, 1
	}
	ps := make([]float64, k)
	for i := range ps {
		ps[i] = percentile(samples[i*len(samples)/k:(i+1)*len(samples)/k], 0.99)
	}
	return median(ps), 0.99, k
}

// median is the interpolated median, used for the small repeat counts
// of set-up timings.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// seconds is the elapsed time since t0 in seconds.
func seconds(t0 time.Time) float64 { return time.Since(t0).Seconds() }
