package main

import "sort"

// tailBeyond is how many samples must lie above the reported tail: the
// tail is the highest percentile that still has this many ops beyond it,
// so it never rests on a handful of outliers.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is a tail sample with the percentile it sits at and how many
// samples lie beyond it.
type tailStat struct {
	Value      float64
	Percentile float64
	N          int
	Beyond     int
}

// tail returns the highest-ranked sample that still has tailBeyond
// samples above it. With too few samples for that, it falls back to the
// maximum and reports Beyond = 0 so the report can say so.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return tailStat{Value: s[n-1], Percentile: 100, N: n}
	}
	i := n - tailBeyond - 1
	return tailStat{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), N: n, Beyond: tailBeyond}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
