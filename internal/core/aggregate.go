package core

import (
	"fmt"
	"sort"

	"distknn/internal/points"
)

// Classify and Regress are folds over a query's winner shares, evaluated
// wherever every seat's share is already in hand: the in-process Cluster,
// whose KNN collects each machine's winners, and the serving frontend,
// which receives them in the nodes' Result frames on both dispatch plans.
// No protocol round carries labels, and the two places share this one
// fold.

// ClassifyShares is the Classify fold: shares[id] is seat id's winner share
// of one query (nil for a seat holding no winner), and the answer is the
// majority label among all of them, ties broken toward the smallest.
func ClassifyShares(shares [][]points.Item) (float64, error) {
	hist := make(map[float64]int64, 4)
	for _, winners := range shares {
		tally(hist, winners)
	}
	return Vote(hist)
}

// RegressShares is the Regress fold: shares[id] is seat id's winner share
// of one query in the order the seat sums it (ascending key order).
func RegressShares(shares [][]points.Item) (float64, error) {
	parts := make([]Partial, len(shares))
	for id, winners := range shares {
		parts[id] = sumLabels(winners)
	}
	return FoldMean(parts)
}

// Vote is the Classify fold over the merged label histogram: the most
// frequent label, ties broken toward the smallest.
func Vote(hist map[float64]int64) (float64, error) {
	if len(hist) == 0 {
		return 0, fmt.Errorf("core: classify with no winners")
	}
	var best float64
	var bestCount int64 = -1
	for _, label := range sortedLabels(hist) {
		if hist[label] > bestCount {
			best, bestCount = label, hist[label]
		}
	}
	return best, nil
}

// Partial is one seat's Regress summary: the sum of its winners' labels,
// accumulated from zero in share order, and how many winners it covers.
type Partial struct {
	Sum   float64
	Count int64
}

// FoldMean is the Regress fold over the per-seat partials of k ≥ 1 seats:
// seat 0's partial, then every other seat's in ascending seat order — a seat
// without winners contributes an exact 0.0 — and one division at the end.
// float64 addition is neither associative nor commutative under rounding,
// so this order is the definition of the answer, not an implementation
// detail. No seat is special: the order depends on nothing but the seat
// ids, so the in-process Cluster and the serving frontend agree bit for
// bit whatever their session seed.
func FoldMean(parts []Partial) (float64, error) {
	sum, count := parts[0].Sum, parts[0].Count
	for _, p := range parts[1:] {
		sum += p.Sum
		count += p.Count
	}
	if count == 0 {
		return 0, fmt.Errorf("core: regress with no winners")
	}
	return sum / float64(count), nil
}

// tally adds one winner share's labels to a label histogram.
func tally(hist map[float64]int64, winners []points.Item) {
	for _, it := range winners {
		hist[it.Label]++
	}
}

// sumLabels reduces one winner share to its Regress partial.
func sumLabels(winners []points.Item) Partial {
	var p Partial
	for _, it := range winners {
		p.Sum += it.Label
		p.Count++
	}
	return p
}

// sortedLabels lists a histogram's labels in ascending order, the one
// deterministic iteration order every consumer of a histogram uses.
func sortedLabels(hist map[float64]int64) []float64 {
	labels := make([]float64, 0, len(hist))
	for label := range hist {
		labels = append(labels, label)
	}
	sort.Float64s(labels)
	return labels
}
