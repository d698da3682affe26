// Package points holds the data-plane of the reproduction: typed point sets,
// distance metrics, workload generators and partitioners.
//
// The distributed algorithms never move points across machines — they move
// (distance, ID) keys (see Section 2 of the paper: "one need not actually
// transfer points, but only distances"). This package is therefore the only
// place that knows what a point is. Given a query, a Set lowers its typed
// points into Items (key + label), and everything above this layer is
// comparison-based and point-type agnostic.
package points

import (
	"fmt"
	"math"
	"sort"

	"distknn/internal/keys"
)

// Item is the per-point value the distributed layer operates on: the total
// order key (encoded distance + unique point ID) and the point's label, which
// is needed once winners are aggregated into a classification or regression
// answer. An Item is what a machine conceptually "holds" about one of its
// points during a query.
type Item struct {
	Key   keys.Key
	Label float64
}

// Metric computes the encoded distance between two points of type P. The
// returned uint64 must order identically to the true distance (use
// keys.EncodeFloat, or the integer distance itself).
type Metric[P any] func(a, b P) uint64

// Set is one machine's (or the whole instance's) collection of labeled
// points together with the metric that compares them. Build one with NewSet
// (or Partition / Merge over sets built that way): the constructors pair
// the metric with its batch kernel and its top-ℓ scan, which TopLItems
// runs.
type Set[P any] struct {
	Pts    []P
	IDs    []uint64
	Labels []float64
	metric Metric[P]
	batch  Batch[P]    // BatchOf(metric)
	topL   topLScan[P] // topLOf(metric)
}

// NewSet builds a Set with sequential unique IDs starting at firstID.
// Labels may be nil, in which case all labels are zero.
func NewSet[P any](pts []P, labels []float64, metric Metric[P], firstID uint64) (*Set[P], error) {
	if metric == nil {
		return nil, fmt.Errorf("points: nil metric")
	}
	if labels != nil && len(labels) != len(pts) {
		return nil, fmt.Errorf("points: %d labels for %d points", len(labels), len(pts))
	}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = firstID + uint64(i)
	}
	if labels == nil {
		labels = make([]float64, len(pts))
	}
	return &Set[P]{Pts: pts, IDs: ids, Labels: labels, metric: metric, batch: BatchOf(metric), topL: topLOf(metric)}, nil
}

// Len returns the number of points in the set.
func (s *Set[P]) Len() int { return len(s.Pts) }

// Item lowers point i into its Item for query q.
func (s *Set[P]) Item(i int, q P) Item {
	return Item{
		Key:   keys.Key{Dist: s.metric(s.Pts[i], q), ID: s.IDs[i]},
		Label: s.Labels[i],
	}
}

// Items lowers the whole set for query q. The result is not sorted.
func (s *Set[P]) Items(q P) []Item {
	out := make([]Item, s.Len())
	for i := range out {
		out[i] = s.Item(i, q)
	}
	return out
}

// BruteKNN returns the l items nearest to q in ascending key order by fully
// sorting — the O(n log n) oracle used to validate every other algorithm.
func (s *Set[P]) BruteKNN(q P, l int) []Item {
	items := s.Items(q)
	sort.Slice(items, func(i, j int) bool { return items[i].Key.Less(items[j].Key) })
	if l > len(items) {
		l = len(items)
	}
	return items[:l]
}

// SortItems sorts items ascending by key, in place. Shared helper for
// leaders and tests.
func SortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].Key.Less(items[j].Key) })
}

// ---------------------------------------------------------------------------
// Concrete point types and metrics
// ---------------------------------------------------------------------------

// Scalar is the paper's experimental point type: an integer in [0, 2³²−1]
// compared by absolute difference. We use the full uint64 range; the
// generators below restrict to the paper's domain.
type Scalar uint64

// ScalarMetric is |a − b|, exact in uint64.
func ScalarMetric(a, b Scalar) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}

// ScalarKeys lowers scalar shards to the selection protocols' input, with
// no query point: shard i becomes keys[i], one (value, ID) key per point in
// shard order.
func ScalarKeys(shards []*Set[Scalar]) [][]keys.Key {
	out := make([][]keys.Key, len(shards))
	for i, s := range shards {
		out[i] = make([]keys.Key, s.Len())
		for j := range out[i] {
			out[i][j] = keys.Key{Dist: uint64(s.Pts[j]), ID: s.IDs[j]}
		}
	}
	return out
}

// Vector is a d-dimensional point.
type Vector []float64

// L2 returns the squared Euclidean distance, float64-encoded. Squaring is
// order-preserving, so keys built from L2 rank identically to true Euclidean
// distance while avoiding the sqrt.
func L2(a, b Vector) uint64 { return keys.MustEncodeFloat(SqL2(a, b)) }

// SqL2 is the squared Euclidean distance as a float64: the one squared-L2
// summation every caller (L2, its batch kernel, the k-d tree) runs. The
// single accumulator and its strictly sequential adds are load-bearing:
// distances feed (distance, id) selection keys that the determinism tests
// pin bit-for-bit, and floating-point addition is not associative — a
// multi-accumulator reduction would change low-order bits and with them
// the answers. Clamping b to len(a) up front drops the per-element bounds
// checks, and the loop is small enough to inline into its callers.
func SqL2(a, b Vector) float64 {
	b = b[:len(a)]
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// L1 returns the Manhattan distance, float64-encoded.
func L1(a, b Vector) uint64 {
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return keys.MustEncodeFloat(sum)
}

// LInf returns the Chebyshev distance, float64-encoded.
func LInf(a, b Vector) uint64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return keys.MustEncodeFloat(m)
}

// Cosine returns the cosine distance 1 − cos(a, b), float64-encoded. The
// dot product and both squared norms accumulate sequentially in one pass
// (the same strictly-ordered summation discipline as L2, so keys replay
// bit-identically), and rounding that would push the distance below zero is
// clamped. Two zero vectors are at distance 0; a single zero vector is at
// the maximum distance 2 (nothing points "the same way" as nothing).
//
// Cosine distance violates the triangle inequality, so it cannot drive
// metric-index pruning — serve it with full scatter only.
func Cosine(a, b Vector) uint64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	var d float64
	switch {
	case na == 0 && nb == 0:
		d = 0
	case na == 0 || nb == 0:
		d = 2
	default:
		d = 1 - dot/math.Sqrt(na*nb)
		if d < 0 {
			d = 0
		}
	}
	return keys.MustEncodeFloat(d)
}

// TopLItems returns the l items nearest to q in ascending key order — the
// local preprocessing step every distributed ℓ-NN algorithm starts from
// ("if a machine has more than ℓ points it keeps the ℓ closest", Section
// 2.2). It reads every point once and compares it with the current cutoff
// before anything else is read; only the few points that beat it (about
// ℓ·ln(n/ℓ) on unordered data) are lowered to Items and sifted into the
// bounded heap. The scan is the one NewSet resolved for the metric: for
// ScalarMetric a window of values around q, which skips most points with
// one subtract and one compare and no distance; for any other metric the
// batch kernel's block pass. O(n) work, O(min(l, n)) memory, one
// allocation.
//
// ceil, optional, is the TopL ceiling: only keys strictly below it are
// kept, so the result is the first min(l, #keys below ceil) of the
// unbounded answer. The scan's cutoff test is the same compare either way.
func (s *Set[P]) TopLItems(q P, l int, ceil ...keys.Key) []Item {
	n := len(s.Pts)
	if l > n {
		l = n
	}
	if l < 1 {
		return nil
	}
	return s.topL(s, q, NewTopL(l, ceil...))
}
