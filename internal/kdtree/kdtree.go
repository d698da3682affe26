// Package kdtree implements a k-d tree over d-dimensional points.
//
// The paper's related-work discussion (Section 1.4) contrasts its
// round-optimal approach with k-d-tree-based systems (Bentley [2], Friedman
// et al. [6], PANDA [14]): a k-d tree accelerates *local* computation but
// does not change round complexity, since each machine can simply index its
// own points. This package provides exactly that role — machines may use it
// to compute their local top-ℓ in O(ℓ log(n/k)) expected time instead of a
// linear scan — and doubles as the sequential single-machine baseline.
//
// The tree is flat, as PANDA lays its trees out: it stores only the split
// value of each inner node, in one slice with implicit children 2i+1 and
// 2i+2, and keeps its own copy of the coordinates in leaf order, each
// point's dim values contiguous, with IDs and labels permuted to match.
// Everything else about a node is derived during the descent: the root
// covers [0, n), a range splits at its middle, a range of at most bucket
// points is a leaf, and a node's axis is its depth mod dim. A search visits
// a bucket as one contiguous run of memory instead of chasing a pointer per
// point, and the set the tree was built from is not retained.
package kdtree

import (
	"fmt"
	"math"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// bucket is the most points a leaf holds: a range of more is split.
const bucket = 8

// Tree is an immutable k-d tree over a vector set. Build once, query many;
// any number of goroutines may query one tree at once.
type Tree struct {
	dim int
	// splits[i] is inner node i's split value. Node 0 covers points [0, n);
	// a node covering [lo, hi) with more than bucket points is inner: its
	// children 2i+1 and 2i+2 cover [lo, mid) and [mid, hi), mid =
	// (lo+hi)/2, every left point's axis coordinate is ≤ the split and
	// every right point's ≥ it, the split being point mid's, and the axis
	// is the node's depth mod dim. A node of at most bucket points is a
	// leaf; a leaf's slot, if it has one, stays zero. The slice holds the
	// 2^depth − 1 slots above the deepest leaves.
	splits []float64
	// coords holds point j's coordinates at [j·dim, (j+1)·dim), points in
	// leaf order; ids and labels are in the same order.
	coords []float64
	ids    []uint64
	labels []float64
}

// Build constructs a k-d tree from the set. The set must contain vectors of
// equal dimension; an empty set yields a tree whose queries return nothing.
// The tree copies what it needs, so the set may be dropped afterwards.
func Build(s *points.Set[points.Vector]) (*Tree, error) {
	n := s.Len()
	t := &Tree{}
	if n == 0 {
		return t, nil
	}
	t.dim = len(s.Pts[0])
	if t.dim == 0 {
		return nil, fmt.Errorf("kdtree: zero-dimensional points")
	}
	for i, p := range s.Pts {
		if len(p) != t.dim {
			return nil, fmt.Errorf("kdtree: point %d has dim %d, want %d", i, len(p), t.dim)
		}
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("kdtree: %d points, at most %d fit", n, math.MaxInt32)
	}
	// Every range at depth d holds ⌊n/2^d⌋ or ⌈n/2^d⌉ points, so the
	// deepest leaf sits at the first depth whose ranges all fit a bucket.
	depth := 0
	for (n+(1<<depth)-1)>>depth > bucket {
		depth++
	}
	t.splits = make([]float64, 1<<depth-1)
	b := builder{dim: t.dim, ids: s.IDs, flat: make([]float64, 0, n*t.dim), perm: make([]int32, n)}
	for i, p := range s.Pts {
		b.flat = append(b.flat, p...)
		b.perm[i] = int32(i)
	}
	b.build(t.splits, 0, 0, n, 0)
	t.coords = make([]float64, 0, n*t.dim)
	t.ids, t.labels = make([]uint64, n), make([]float64, n)
	for j, i := range b.perm {
		t.coords = append(t.coords, b.point(i)...)
		t.ids[j], t.labels[j] = s.IDs[i], s.Labels[i]
	}
	return t, nil
}

// builder holds the permutation of the set that Build rearranges, range by
// range, into leaf order. The selection reads the set's coordinates from
// flat, a row-major copy in set order, rather than through a slice header
// per point.
type builder struct {
	dim  int
	ids  []uint64
	flat []float64
	perm []int32
}

// point returns the coordinates of set point i.
func (b *builder) point(i int32) []float64 {
	return b.flat[int(i)*b.dim : int(i+1)*b.dim]
}

// build fills node i, which covers perm[lo:hi), splitting it at the median
// along axis unless it fits a bucket.
func (b *builder) build(splits []float64, i, lo, hi, axis int) {
	if hi-lo <= bucket {
		return
	}
	mid := (lo + hi) / 2
	b.selectByAxis(lo, hi, mid, axis)
	splits[i] = b.point(b.perm[mid])[axis]
	next := (axis + 1) % b.dim
	b.build(splits, 2*i+1, lo, mid, next)
	b.build(splits, 2*i+2, mid, hi, next)
}

// before orders point a ahead of point c along axis, ties broken by ID —
// a strict total order, so every range has exactly one median.
func (b *builder) before(a, c int32, axis int) bool {
	va, vc := b.flat[int(a)*b.dim+axis], b.flat[int(c)*b.dim+axis]
	if va != vc {
		return va < vc
	}
	return b.ids[a] < b.ids[c]
}

// selectByAxis reorders perm[lo:hi) so that perm[nth] holds the point of
// that rank along axis, with every point ordering before it on its left and
// every point after it on its right: quickselect with a median-of-three
// pivot, expected O(hi−lo). Which points land on each side is decided by
// the order alone, not by how the selection got there, so the tree is
// node for node the one a full sort of every range would build.
func (b *builder) selectByAxis(lo, hi, nth, axis int) {
	perm := b.perm
	for hi-lo > 1 {
		// Median of first, middle and last goes to the end as the pivot.
		mid, last := lo+(hi-lo)/2, hi-1
		if b.before(perm[mid], perm[lo], axis) {
			perm[lo], perm[mid] = perm[mid], perm[lo]
		}
		if b.before(perm[last], perm[lo], axis) {
			perm[lo], perm[last] = perm[last], perm[lo]
		}
		if b.before(perm[mid], perm[last], axis) {
			perm[mid], perm[last] = perm[last], perm[mid]
		}
		pivot := perm[last]
		store := lo
		for i := lo; i < last; i++ {
			if b.before(perm[i], pivot, axis) {
				perm[i], perm[store] = perm[store], perm[i]
				store++
			}
		}
		perm[store], perm[last] = perm[last], perm[store]
		switch {
		case nth == store:
			return
		case nth < store:
			hi = store
		default:
			lo = store + 1
		}
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.ids) }

// KNN returns the l points nearest to q under squared Euclidean distance, as
// Items in ascending key order — bit-identical keys to points.L2, so results
// can be cross-checked against brute force exactly.
//
// ceil, optional, is the points.TopL ceiling: only keys strictly below it
// are kept, so the result is the first min(l, #keys below ceil) of the
// unbounded answer. The descent reads it as its cutoff from the start, so a
// tight ceiling prunes slabs before the heap ever fills.
func (t *Tree) KNN(q points.Vector, l int, ceil ...keys.Key) []points.Item {
	if l > len(t.ids) {
		l = len(t.ids)
	}
	if l < 1 {
		return nil
	}
	top := points.NewTopL(l, ceil...)
	s := search{t: t, q: q, top: top, cut: top.Cut()}
	s.visit(0, 0, len(t.ids), 0)
	return s.top.Sorted()
}

// search is the state of one KNN descent: the accumulator and a copy of its
// cutoff, which both the admission test and the plane test read.
type search struct {
	t   *Tree
	q   points.Vector
	top points.TopL
	cut keys.Key
}

// visit searches node i, which covers points [lo, hi) and splits along
// axis.
func (s *search) visit(i, lo, hi, axis int) {
	for hi-lo > bucket {
		mid, next := (lo+hi)/2, axis+1
		if next == s.t.dim {
			next = 0
		}
		// Ties on split fall on both sides, so a query on the plane may
		// descend either way first; the plane test below then never prunes.
		diff := s.q[axis] - s.t.splits[i]
		farI, farLo, farHi := 2*i+2, mid, hi
		if diff >= 0 {
			s.visit(2*i+2, mid, hi, next)
			farI, farLo, farHi = 2*i+1, lo, mid
		} else {
			s.visit(2*i+1, lo, mid, next)
		}
		// Only cross the splitting plane if the slab could contain a
		// closer point than the current cutoff (the ceiling, while fewer
		// than l points are held): every point across it is at least |diff|
		// away along the axis, float subtraction and squaring are monotone,
		// and adding the other axes' squares cannot shrink a float sum, so
		// its key is at least diff².
		if math.Float64bits(diff*diff) > s.cut.Dist {
			return
		}
		i, lo, hi, axis = farI, farLo, farHi, next
	}
	s.scan(lo, hi)
}

// scan offers the bucket's points [lo, hi) to the accumulator.
func (s *search) scan(lo, hi int) {
	t, dim := s.t, s.t.dim
	for j := lo; j < hi; j++ {
		key := keys.Key{Dist: keys.MustEncodeFloat(points.SqL2(t.coords[j*dim:(j+1)*dim], s.q)), ID: t.ids[j]}
		if key.Less(s.cut) {
			s.top.Push(points.Item{Key: key, Label: t.labels[j]})
			s.cut = s.top.Cut()
		}
	}
}
