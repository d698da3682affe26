// Package kdtree implements a k-d tree over d-dimensional points.
//
// The paper's related-work discussion (Section 1.4) contrasts its
// round-optimal approach with k-d-tree-based systems (Bentley [2], Friedman
// et al. [6], PANDA [14]): a k-d tree accelerates *local* computation but
// does not change round complexity, since each machine can simply index its
// own points. This package provides exactly that role — machines may use it
// to compute their local top-ℓ in O(ℓ log(n/k)) expected time instead of a
// linear scan — and doubles as the sequential single-machine baseline.
package kdtree

import (
	"fmt"
	"math"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// Tree is an immutable k-d tree over a vector set. Build once, query many.
type Tree struct {
	dim    int
	pts    []points.Vector
	ids    []uint64
	labels []float64
	// nodes is laid out as a binary tree over index permutation perm:
	// node i covers perm[start..end); axis cycles with depth.
	perm []int
	root *node
}

type node struct {
	idx         int // index into pts of the splitting point
	axis        int
	left, right *node
}

// Build constructs a k-d tree from the set. The set must contain vectors of
// equal dimension; an empty set yields a tree whose queries return nothing.
func Build(s *points.Set[points.Vector]) (*Tree, error) {
	n := s.Len()
	t := &Tree{pts: s.Pts, ids: s.IDs, labels: s.Labels}
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
	t.perm = make([]int, n)
	for i := range t.perm {
		t.perm[i] = i
	}
	t.root = t.build(0, n, 0)
	return t, nil
}

// build recursively splits perm[lo:hi) at the median along axis.
func (t *Tree) build(lo, hi, axis int) *node {
	if lo >= hi {
		return nil
	}
	mid := (lo + hi) / 2
	t.selectByAxis(lo, hi, mid, axis)
	nd := &node{idx: t.perm[mid], axis: axis}
	next := (axis + 1) % t.dim
	nd.left = t.build(lo, mid, next)
	nd.right = t.build(mid+1, hi, next)
	return nd
}

// before orders point a ahead of point b along axis, ties broken by ID —
// a strict total order, so every range has exactly one median.
func (t *Tree) before(a, b, axis int) bool {
	va, vb := t.pts[a][axis], t.pts[b][axis]
	if va != vb {
		return va < vb
	}
	return t.ids[a] < t.ids[b]
}

// selectByAxis reorders perm[lo:hi) so that perm[nth] holds the point of
// that rank along axis, with every point ordering before it on its left and
// every point after it on its right: quickselect with a median-of-three
// pivot, expected O(hi−lo). Which points land on each side is decided by
// the order alone, not by how the selection got there, so the tree is
// node for node the one a full sort of every range would build.
func (t *Tree) selectByAxis(lo, hi, nth, axis int) {
	perm := t.perm
	for hi-lo > 1 {
		// Median of first, middle and last goes to the end as the pivot.
		mid, last := lo+(hi-lo)/2, hi-1
		if t.before(perm[mid], perm[lo], axis) {
			perm[lo], perm[mid] = perm[mid], perm[lo]
		}
		if t.before(perm[last], perm[lo], axis) {
			perm[lo], perm[last] = perm[last], perm[lo]
		}
		if t.before(perm[mid], perm[last], axis) {
			perm[mid], perm[last] = perm[last], perm[mid]
		}
		pivot := perm[last]
		store := lo
		for i := lo; i < last; i++ {
			if t.before(perm[i], pivot, axis) {
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
func (t *Tree) Len() int { return len(t.pts) }

// KNN returns the l points nearest to q under squared Euclidean distance, as
// Items in ascending key order — bit-identical keys to points.L2, so results
// can be cross-checked against brute force exactly.
func (t *Tree) KNN(q points.Vector, l int) []points.Item {
	if l > len(t.pts) {
		l = len(t.pts)
	}
	if l < 1 {
		return nil
	}
	top := points.NewTopL(l)
	s := search{t: t, q: q, top: top, cut: top.Cut()}
	s.visit(t.root)
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

func (s *search) visit(nd *node) {
	for nd != nil {
		p := s.t.pts[nd.idx]
		key := keys.Key{Dist: keys.MustEncodeFloat(sq2(p, s.q)), ID: s.t.ids[nd.idx]}
		if key.Less(s.cut) {
			s.top.Push(points.Item{Key: key, Label: s.t.labels[nd.idx]})
			s.cut = s.top.Cut()
		}
		diff := s.q[nd.axis] - p[nd.axis]
		near, far := nd.left, nd.right
		if diff > 0 {
			near, far = far, near
		}
		s.visit(near)
		// Only cross the splitting plane if the slab could contain a
		// closer point than the current cutoff (any slab, while fewer
		// than l points are held: the cutoff is then keys.MaxKey).
		if math.Float64bits(diff*diff) > s.cut.Dist {
			return
		}
		nd = far
	}
}

// CountWithin returns the number of points at squared Euclidean distance
// ≤ r2 from q.
func (t *Tree) CountWithin(q points.Vector, r2 float64) int {
	count := 0
	var visit func(nd *node)
	visit = func(nd *node) {
		if nd == nil {
			return
		}
		p := t.pts[nd.idx]
		if sq2(p, q) <= r2 {
			count++
		}
		diff := q[nd.axis] - p[nd.axis]
		near, far := nd.left, nd.right
		if diff > 0 {
			near, far = nd.right, nd.left
		}
		visit(near)
		if diff*diff <= r2 {
			visit(far)
		}
	}
	visit(t.root)
	return count
}

// Height returns the tree height (0 for empty) — exposed for balance tests.
func (t *Tree) Height() int {
	var h func(nd *node) int
	h = func(nd *node) int {
		if nd == nil {
			return 0
		}
		l, r := h(nd.left), h(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.root)
}

func sq2(a, b points.Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// MaxHeightFor returns the height bound a median-split tree must satisfy for
// n points: ceil(log2(n+1)).
func MaxHeightFor(n int) int {
	return int(math.Ceil(math.Log2(float64(n + 1))))
}
