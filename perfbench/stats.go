package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the middle value (mean of the two middles for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowedPercentile cuts samples into windows of width seconds by due
// time, takes the q-quantile of every window holding at least minN
// samples, and returns the median over those windows and their count. A
// stall that hits one window moves one window's figure, not the result.
func windowedPercentile(samples []latSample, from, width, q float64, minN int) (float64, int) {
	windows := map[int][]float64{}
	for _, s := range samples {
		if s.Due >= from {
			k := int((s.Due - from) / width)
			windows[k] = append(windows[k], s.Ms)
		}
	}
	var per []float64
	for _, xs := range windows {
		if len(xs) >= minN {
			per = append(per, percentile(xs, q))
		}
	}
	return median(per), len(per)
}

// windowedRate is the median scoring rate over consecutive windows of at
// least width seconds of a polled counter trace.
func windowedRate(trace []progress, width float64) (float64, int) {
	var rates []float64
	for i := 0; i < len(trace); {
		j := i + 1
		for j < len(trace) && trace[j].T-trace[i].T < width {
			j++
		}
		if j == len(trace) {
			break
		}
		rates = append(rates, (trace[j].N-trace[i].N)/(trace[j].T-trace[i].T))
		i = j
	}
	return median(rates), len(rates)
}

// best is the best of several passes' figures: the highest when higher is
// better, else the lowest. Interference from other tenants of the host
// only ever slows a pass down, so the best pass is the one it disturbed
// least, and it moves when the service itself changes.
func best(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	b := xs[0]
	for _, x := range xs[1:] {
		if (higher && x > b) || (!higher && x < b) {
			b = x
		}
	}
	return b
}
