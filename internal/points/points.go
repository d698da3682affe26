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
	"math/bits"
	"math/rand/v2"
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
// keys.EncodeFloat / keys.EncodeUint).
type Metric[P any] func(a, b P) uint64

// Set is one machine's (or the whole instance's) collection of labeled
// points together with the metric that compares them. Build one with NewSet
// (or Partition / Merge over sets built that way): the constructors pair
// the metric with its batch kernel, which TopLItems scans with.
type Set[P any] struct {
	Pts    []P
	IDs    []uint64
	Labels []float64
	metric Metric[P]
	batch  Batch[P] // BatchOf(metric)
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
	return &Set[P]{Pts: pts, IDs: ids, Labels: labels, metric: metric, batch: BatchOf(metric)}, nil
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

// AssignRandomIDs replaces the set's IDs with random values in [1, n³] where
// n is the given global point count, reproducing the paper's ID scheme. IDs
// are unique with high probability; the caller may check CollidingIDs if it
// needs certainty. Deterministic given rng.
func (s *Set[P]) AssignRandomIDs(rng *rand.Rand, globalN uint64) {
	hi := globalN * globalN * globalN
	if hi < 1 || globalN > 1<<21 { // n³ overflows beyond 2^21.3; saturate.
		hi = math.MaxUint64
	}
	for i := range s.IDs {
		s.IDs[i] = 1 + rng.Uint64N(hi)
	}
}

// CollidingIDs reports whether any two points across the given sets share an
// ID. It is the verification counterpart of AssignRandomIDs.
func CollidingIDs[P any](sets ...*Set[P]) bool {
	seen := make(map[uint64]bool)
	for _, s := range sets {
		for _, id := range s.IDs {
			if seen[id] {
				return true
			}
			seen[id] = true
		}
	}
	return false
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

// Vector is a d-dimensional point.
type Vector []float64

// L2 returns the squared Euclidean distance, float64-encoded. Squaring is
// order-preserving, so keys built from L2 rank identically to true Euclidean
// distance while avoiding the sqrt.
//
// The loop is 4-way unrolled with the b slice clamped to len(a) up front,
// which lets the compiler drop the per-element bounds checks. The single
// accumulator and its strictly sequential adds are load-bearing: distances
// feed (distance, id) selection keys that the determinism tests pin
// bit-for-bit, and floating-point addition is not associative — a
// multi-accumulator reduction would change low-order bits and with them
// the answers.
func L2(a, b Vector) uint64 {
	b = b[:len(a)]
	var sum float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		sum += d0 * d0
		d1 := a[i+1] - b[i+1]
		sum += d1 * d1
		d2 := a[i+2] - b[i+2]
		sum += d2 * d2
		d3 := a[i+3] - b[i+3]
		sum += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return keys.MustEncodeFloat(sum)
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

// BitVector is a bit-packed point for Hamming distance (e.g. binary feature
// sketches), 64 features per word.
type BitVector []uint64

// Hamming counts differing bits: a popcount over the xor of each word
// pair. The straight loop inlines into the batch kernel and already keeps
// the popcount off the critical path (measured faster than a
// two-accumulator unroll at every dim).
func Hamming(a, b BitVector) uint64 {
	var n uint64
	for i := range a {
		n += uint64(bits.OnesCount64(a[i] ^ b[i]))
	}
	return n
}

// TopLItems returns the l items nearest to q in ascending key order — the
// local preprocessing step every distributed ℓ-NN algorithm starts from
// ("if a machine has more than ℓ points it keeps the ℓ closest", Section
// 2.2). It is a block scan: the set's batch kernel fills a block of
// distances, each distance is compared with the current cutoff before
// anything else is read, and only the few points that beat it (about
// ℓ·ln(n/ℓ) on unordered data) are lowered to Items and sifted into the
// bounded heap. O(n) distance work, O(min(l, n)) memory, one allocation.
func (s *Set[P]) TopLItems(q P, l int) []Item {
	n := len(s.Pts)
	if l > n {
		l = n
	}
	if l < 1 {
		return nil
	}
	top := NewTopL(l)
	cut := top.Cut()
	s.batch.ForBlocks(s.Pts, q, func(lo int, dist []uint64) {
		ids, labels := s.IDs[lo:lo+len(dist)], s.Labels[lo:lo+len(dist)]
		for i, d := range dist {
			if d > cut.Dist || (d == cut.Dist && ids[i] >= cut.ID) {
				continue
			}
			top.Push(Item{Key: keys.Key{Dist: d, ID: ids[i]}, Label: labels[i]})
			cut = top.Cut()
		}
	})
	return top.Sorted()
}
