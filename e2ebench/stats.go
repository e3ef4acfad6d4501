package main

import (
	"math"
	"sort"
	"time"
)

// samples is a latency series in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks, in nanoseconds; NaN for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// beyond counts the samples strictly above the q-quantile.
func (s samples) beyond(q float64) int {
	v := s.quantile(q)
	n := 0
	for _, x := range s {
		if float64(x) > v {
			n++
		}
	}
	return n
}

// floats is a series of plain per-op values (counts, byte sizes, ratios).
type floats []float64

func (f floats) median() float64 {
	if len(f) == 0 {
		return 0
	}
	s := append(floats(nil), f...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func (f floats) sum() float64 {
	t := 0.0
	for _, v := range f {
		t += v
	}
	return t
}

func (f floats) mean() float64 {
	if len(f) == 0 {
		return 0
	}
	return f.sum() / float64(len(f))
}

func (f floats) max() float64 {
	m := 0.0
	for _, v := range f {
		m = math.Max(m, v)
	}
	return m
}

// medianDuration is the median of a few set-up timings.
func medianDuration(ds []time.Duration) time.Duration {
	f := make(floats, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(f.median())
}
