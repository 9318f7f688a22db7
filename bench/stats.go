package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles, with its size.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so they
// match what the benchmark's acceptance check computes from the same
// values. A single sample is its own median and quartiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: n, Q1: q(1), Median: median(s), Q3: q(3)}
}

// median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even (0 for no values).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
