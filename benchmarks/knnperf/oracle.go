package main

import (
	"fmt"
	"math"
	"sort"

	"distknn"
)

// answer is what one client call returned.
type answer struct {
	idx   uint64 // index of the query in the workload's stream
	op    op
	items []distknn.Item // KNN
	value float64        // Classify, Regress
	stats *distknn.QueryStats
}

// seatItem is one point of the union as the oracle sees it: its key for the
// query at hand, its label, and the seat whose shard holds it.
type seatItem struct {
	distknn.Item
	seat int
}

// oracle answers queries by brute force over the union of the shards the
// nodes were given. It shares nothing with the serving stack but the
// distance function, so an agreement is evidence and a mismatch is a failure.
type oracle[P any] struct {
	metric distknn.Metric[P]
	shards []distknn.Shard[P]
}

func newOracle[P any](s *spec[P]) (*oracle[P], error) {
	o := &oracle[P]{metric: s.metric}
	for id := 0; id < nodes; id++ {
		sh, err := s.shards(id, nodes)
		if err != nil {
			return nil, fmt.Errorf("oracle: shard %d: %w", id, err)
		}
		o.shards = append(o.shards, sh)
	}
	return o, nil
}

// union flattens the shards into one dataset, for the simulator.
func (o *oracle[P]) union() (pts []P, labels []float64) {
	for _, sh := range o.shards {
		pts = append(pts, sh.Points...)
		if sh.Labels != nil {
			labels = append(labels, sh.Labels...)
		} else {
			labels = append(labels, make([]float64, len(sh.Points))...)
		}
	}
	return pts, labels
}

// nearest returns the l items of the union nearest q in ascending key
// order. It keeps a buffer of at most 2l candidates under a moving
// threshold and sorts it whenever it fills.
func (o *oracle[P]) nearest(q P, l int) []seatItem {
	buf := make([]seatItem, 0, 2*l)
	var worst distknn.Key
	full := false
	shrink := func() {
		sort.Slice(buf, func(i, j int) bool { return buf[i].Key.Less(buf[j].Key) })
		if len(buf) > l {
			buf = buf[:l]
		}
		if len(buf) == l {
			worst, full = buf[l-1].Key, true
		}
	}
	for seat, sh := range o.shards {
		for j, p := range sh.Points {
			id := sh.FirstID + uint64(j)
			if sh.IDs != nil {
				id = sh.IDs[j]
			}
			key := distknn.Key{Dist: o.metric(p, q), ID: id}
			if full && !key.Less(worst) {
				continue
			}
			var label float64
			if sh.Labels != nil {
				label = sh.Labels[j]
			}
			buf = append(buf, seatItem{Item: distknn.Item{Key: key, Label: label}, seat: seat})
			if len(buf) == cap(buf) {
				shrink()
			}
		}
	}
	shrink()
	return buf
}

// check compares one served answer with the brute-force one: items, keys
// and labels for KNN, the boundary key for every op, and the aggregate of
// Classify and Regress bit for bit.
func (o *oracle[P]) check(q P, l int, a answer) error {
	want := o.nearest(q, l)
	if len(want) == 0 {
		return fmt.Errorf("query %d: oracle found no points", a.idx)
	}
	if a.stats == nil {
		return fmt.Errorf("query %d: no stats", a.idx)
	}
	if b := want[len(want)-1].Key; a.stats.Boundary != b {
		return fmt.Errorf("query %d (%s): boundary %v, oracle %v", a.idx, a.op, a.stats.Boundary, b)
	}
	switch a.op {
	case opKNN:
		if len(a.items) != len(want) {
			return fmt.Errorf("query %d: %d items, oracle %d", a.idx, len(a.items), len(want))
		}
		for i, it := range a.items {
			if it.Key != want[i].Key || math.Float64bits(it.Label) != math.Float64bits(want[i].Label) {
				return fmt.Errorf("query %d: item %d is %v, oracle %v", a.idx, i, it, want[i].Item)
			}
		}
	case opClassify:
		if v := majority(want); math.Float64bits(a.value) != math.Float64bits(v) {
			return fmt.Errorf("query %d: classified %v, oracle %v", a.idx, a.value, v)
		}
	case opRegress:
		if v := leaderMean(want, a.stats.Leader); math.Float64bits(a.value) != math.Float64bits(v) {
			return fmt.Errorf("query %d: regressed %v, oracle %v", a.idx, a.value, v)
		}
	}
	return nil
}

// majority is the most frequent label, ties toward the smallest.
func majority(items []seatItem) float64 {
	count := make(map[float64]int)
	for _, it := range items {
		count[it.Label]++
	}
	labels := make([]float64, 0, len(count))
	for label := range count {
		labels = append(labels, label)
	}
	sort.Float64s(labels)
	best := labels[0]
	for _, label := range labels[1:] {
		if count[label] > count[best] {
			best = label
		}
	}
	return best
}

// leaderMean is the mean label in the order the cluster adds it up: every
// seat sums its own winners in ascending key order, and the leader adds its
// own sum first and the other seats' in ascending seat order. Floating-point
// addition depends on that order, and the comparison is bit for bit.
func leaderMean(items []seatItem, leader int) float64 {
	var partial [nodes]float64
	for _, it := range items {
		partial[it.seat] += it.Label
	}
	sum := partial[leader]
	for seat, p := range partial {
		if seat != leader {
			sum += p
		}
	}
	return sum / float64(len(items))
}
