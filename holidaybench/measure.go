package main

import (
	"fmt"
	"math"
	"sort"
)

// samples holds every latency of one operation kind, in nanoseconds. The
// gated percentiles are read from the sorted samples themselves, never
// from a bucketed histogram, so two runs of the same program can only
// differ by what was measured.
type samples []int64

// quantile is one exact percentile read from recorded samples.
type quantile struct {
	// Q is the percentile actually reported (0.99 unless too few samples
	// lie beyond it, see tail).
	Q float64
	// Value is the sample at rank ⌈Q·N⌉, in nanoseconds.
	Value int64
	// N is the sample count and Beyond the samples ranked above Value.
	N, Beyond int
	// parts is the number of intervals Value is the median over (0 when
	// it is read from one sample set).
	parts int
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// at returns the nearest-rank percentile q of sorted samples.
func (s samples) at(q float64) quantile {
	n := len(s)
	if n == 0 {
		return quantile{Q: q}
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return quantile{Q: q, Value: s[rank-1], N: n, Beyond: n - rank}
}

// tail returns percentile q of sorted samples, or, when fewer than
// minBeyond samples lie beyond it, the highest percentile that still has
// minBeyond beyond it (the median when there are too few samples for any).
func (s samples) tail(q float64) quantile {
	r := s.at(q)
	if r.Beyond >= minBeyond || len(s) == 0 {
		return r
	}
	n := len(s)
	if n <= 2*minBeyond {
		return s.at(0.5)
	}
	return s.at(float64(n-minBeyond) / float64(n))
}

// sum returns the total of the samples.
func (s samples) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// median returns the median of a small set of measurements.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// metric is one reported figure. Note carries the sample counts or the
// definition actually used, for the human-readable report.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// report collects metrics in print order.
type report struct{ ms []metric }

func (r *report) add(name string, v float64, unit, note string) {
	r.ms = append(r.ms, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// quantileUS adds a percentile in microseconds with its sample counts.
func (r *report) quantileUS(name string, q quantile) {
	note := fmt.Sprintf("p%.4g of %d samples, %d beyond", q.Q*100, q.N, q.Beyond)
	if q.parts > 0 {
		note = fmt.Sprintf("median over %d intervals of p%.4g; smallest interval %d samples, %d beyond", q.parts, q.Q*100, q.N, q.Beyond)
	}
	r.add(name, float64(q.Value)/1e3, "us", note)
}
