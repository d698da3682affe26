package main

import (
	"math"
	"sort"
	"time"
)

// at reads sorted xs at a fractional index, interpolating between the two
// nearest elements and clamping to the ends.
func at(sorted []float64, pos float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos = math.Max(0, math.Min(pos, float64(len(sorted)-1)))
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantile reads quantile p of sorted xs.
func quantile(sorted []float64, p float64) float64 { return at(sorted, p*float64(len(sorted)-1)) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles placed as Python's statistics.quantiles
// places them (exclusive method), so that it reads the same as the driver's.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	exclusive := func(p float64) float64 { return at(s, p*float64(len(s)+1)-1) }
	med := exclusive(0.5)
	if med == 0 {
		return 0
	}
	return (exclusive(0.75) - exclusive(0.25)) / math.Abs(med)
}

// slice is one stretch of a drive: the latencies, in milliseconds, of the
// successful calls that completed inside it.
type slice struct {
	width time.Duration
	lat   []float64
}

func (sl slice) rate() float64 { return float64(len(sl.lat)) / sl.width.Seconds() }

// slices cuts the d after a drive's warm-up into n equal stretches.
func slices(t *tally, warm, d time.Duration, n int) []slice {
	out := make([]slice, n)
	width := d / time.Duration(n)
	for i := range out {
		out[i].width = width
	}
	for _, sm := range t.samples {
		at := time.Duration(sm.doneNS) - warm
		if !sm.ok || at < 0 || at >= width*time.Duration(n) {
			continue
		}
		sl := &out[at/width]
		sl.lat = append(sl.lat, float64(sm.latNS)/1e6)
	}
	return out
}

// quietHalf keeps the half of the slices with the highest rates and returns
// their combined rate and their latencies, sorted. On a shared box a
// neighbour only ever slows a slice down, so the slower half says more
// about the neighbour than about the code; the faster half still holds
// whatever the code does in every half second.
func quietHalf(all []slice) (qps float64, pool []float64) {
	byRate := append([]slice(nil), all...)
	sort.SliceStable(byRate, func(i, j int) bool { return byRate[i].rate() > byRate[j].rate() })
	var width time.Duration
	for _, sl := range byRate[:(len(byRate)+1)/2] {
		width += sl.width
		pool = append(pool, sl.lat...)
	}
	sort.Float64s(pool)
	return float64(len(pool)) / width.Seconds(), pool
}
