package kdtree

import (
	"runtime"
	"sort"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

func buildRandom(t testing.TB, seed uint64, n, dim int) (*Tree, *points.Set[points.Vector]) {
	t.Helper()
	rng := xrand.New(seed)
	s := points.GenUniformVectors(rng, n, dim)
	tree, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree, s
}

func TestBuildEmpty(t *testing.T) {
	s, _ := points.NewSet([]points.Vector{}, nil, points.L2, 1)
	tree, err := Build(s)
	if err != nil {
		t.Fatalf("Build empty: %v", err)
	}
	if got := tree.KNN(points.Vector{0.5}, 3); got != nil {
		t.Errorf("empty tree KNN = %v, want nil", got)
	}
	if tree.Height() != 0 || tree.Len() != 0 {
		t.Errorf("empty tree shape wrong")
	}
}

func TestBuildRejectsMixedDims(t *testing.T) {
	s, _ := points.NewSet([]points.Vector{{1, 2}, {1}}, nil, points.L2, 1)
	if _, err := Build(s); err == nil {
		t.Errorf("mixed dimensions must be rejected")
	}
	s2, _ := points.NewSet([]points.Vector{{}}, nil, points.L2, 1)
	if _, err := Build(s2); err == nil {
		t.Errorf("zero-dimensional points must be rejected")
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 8} {
		tree, s := buildRandom(t, uint64(dim), 300, dim)
		rng := xrand.New(100 + uint64(dim))
		for trial := 0; trial < 20; trial++ {
			q := make(points.Vector, dim)
			for j := range q {
				q[j] = rng.Float64()
			}
			l := 1 + rng.IntN(20)
			got := tree.KNN(q, l)
			want := s.BruteKNN(q, l)
			if len(got) != len(want) {
				t.Fatalf("dim=%d l=%d: got %d items, want %d", dim, l, len(got), len(want))
			}
			for i := range got {
				if got[i].Key != want[i].Key {
					t.Fatalf("dim=%d l=%d rank %d: got %v, want %v",
						dim, l, i, got[i].Key, want[i].Key)
				}
			}
		}
	}
}

func TestKNNWithLLargerThanN(t *testing.T) {
	tree, s := buildRandom(t, 7, 10, 2)
	got := tree.KNN(points.Vector{0.5, 0.5}, 50)
	if len(got) != 10 {
		t.Fatalf("l>n must return all %d points, got %d", s.Len(), len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key.Less(got[i-1].Key) {
			t.Fatalf("results not sorted at %d", i)
		}
	}
}

func TestKNNInvalidL(t *testing.T) {
	tree, _ := buildRandom(t, 8, 10, 2)
	if got := tree.KNN(points.Vector{0.5, 0.5}, 0); got != nil {
		t.Errorf("l=0 must return nil")
	}
}

func TestKNNDuplicatePoints(t *testing.T) {
	pts := []points.Vector{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	s, _ := points.NewSet(pts, []float64{1, 2, 3, 4}, points.L2, 1)
	tree, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	got := tree.KNN(points.Vector{1, 1}, 3)
	if len(got) != 3 {
		t.Fatalf("got %d items", len(got))
	}
	// All three duplicates at distance 0, ordered by ID.
	for i, item := range got {
		if item.Key.Dist != 0 || item.Key.ID != uint64(i+1) {
			t.Errorf("rank %d: %v", i, item.Key)
		}
	}
}

// TestKNNCeilingMatchesBruteForce holds the ceiling to its oracle: KNN(q,
// l, ceil) is exactly the first min(l, #keys below ceil) keys of the brute
// force sort, for ceilings of MinKey, MaxKey, a key of the set and a key
// strictly between two of them, for l past n, and on a set full of
// duplicate points.
func TestKNNCeilingMatchesBruteForce(t *testing.T) {
	rng := xrand.New(7)
	uniform := points.GenUniformVectors(rng, 300, 3)
	dups := make([]points.Vector, 200)
	for i := range dups {
		dups[i] = points.Vector{float64(rng.IntN(3)), float64(rng.IntN(3))}
	}
	dupSet, err := points.NewSet(dups, nil, points.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*points.Set[points.Vector]{uniform, dupSet} {
		tree, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		n, dim := s.Len(), len(s.Pts[0])
		for trial := 0; trial < 10; trial++ {
			q := make(points.Vector, dim)
			for j := range q {
				q[j] = float64(rng.IntN(3)) * rng.Float64()
			}
			sorted := s.BruteKNN(q, n)
			ceils := []keys.Key{keys.MinKey, keys.MaxKey, sorted[n/2].Key}
			for i := n / 3; i+1 < n; i++ {
				if between := (keys.Key{Dist: sorted[i].Key.Dist, ID: sorted[i].Key.ID + 1}); between.Less(sorted[i+1].Key) {
					ceils = append(ceils, between)
					break
				}
			}
			for _, ceil := range ceils {
				below := sort.Search(n, func(i int) bool { return !sorted[i].Key.Less(ceil) })
				for _, l := range []int{1, 16, n, n + 5} {
					got, want := tree.KNN(q, l, ceil), sorted[:min(l, below)]
					if len(got) != len(want) {
						t.Fatalf("n=%d l=%d ceil=%v: %d items, want %d", n, l, ceil, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("n=%d l=%d ceil=%v rank %d: %v, want %v", n, l, ceil, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestTreeBalanced(t *testing.T) {
	tree, _ := buildRandom(t, 10, 1023, 2)
	if h := tree.Height(); h > MaxHeightFor(1023) {
		t.Errorf("height %d exceeds balanced bound %d", h, MaxHeightFor(1023))
	}
}

func TestKNNKeysMatchL2Encoding(t *testing.T) {
	// The tree's keys must be bit-identical to points.L2 keys so distributed
	// protocols can mix tree-computed and scan-computed items.
	tree, s := buildRandom(t, 11, 100, 2)
	q := points.Vector{0.3, 0.7}
	got := tree.KNN(q, 5)
	for _, item := range got {
		// find the point by ID
		for i, id := range s.IDs {
			if id == item.Key.ID {
				if want := points.L2(s.Pts[i], q); want != item.Key.Dist {
					t.Fatalf("key dist %d != L2 encoding %d", item.Key.Dist, want)
				}
			}
		}
	}
}

// buildBySort is the reference Build is held to: the same recursion, with
// every range fully sorted by (axis coordinate, ID) before its middle
// element becomes the node — what Build did before it selected the median.
func buildBySort(s *points.Set[points.Vector], perm []int, axis int) *node {
	if len(perm) == 0 {
		return nil
	}
	sort.Slice(perm, func(a, b int) bool {
		va, vb := s.Pts[perm[a]][axis], s.Pts[perm[b]][axis]
		if va != vb {
			return va < vb
		}
		return s.IDs[perm[a]] < s.IDs[perm[b]]
	})
	mid := len(perm) / 2
	next := (axis + 1) % len(s.Pts[0])
	return &node{
		idx:   perm[mid],
		axis:  axis,
		left:  buildBySort(s, perm[:mid], next),
		right: buildBySort(s, perm[mid+1:], next),
	}
}

func sameTree(t *testing.T, got, want *node, path string) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("node %q: present in one tree only", path)
		}
		return
	}
	if got.idx != want.idx || got.axis != want.axis {
		t.Fatalf("node %q: point %d on axis %d, reference has point %d on axis %d", path, got.idx, got.axis, want.idx, want.axis)
	}
	sameTree(t, got.left, want.left, path+"L")
	sameTree(t, got.right, want.right, path+"R")
}

// TestBuildMatchesFullSortReference: selecting the median must produce, node
// for node, the tree that sorting every range produces — on distinct
// coordinates, on coordinates drawn from three values (long runs of ties
// broken by ID), and when every point is the same point.
func TestBuildMatchesFullSortReference(t *testing.T) {
	rng := xrand.New(31)
	inputs := map[string]func() points.Vector{
		"random":    func() points.Vector { return points.Vector{rng.Float64(), rng.Float64(), rng.Float64()} },
		"duplicate": func() points.Vector { return points.Vector{float64(rng.IntN(3)), float64(rng.IntN(3))} },
		"all-equal": func() points.Vector { return points.Vector{0.5, 0.5} },
	}
	for name, draw := range inputs {
		for _, n := range []int{1, 2, 3, 10, 257, 1000} {
			pts := make([]points.Vector, n)
			for i := range pts {
				pts[i] = draw()
			}
			s, err := points.NewSet(pts, nil, points.L2, 1)
			if err != nil {
				t.Fatal(err)
			}
			// IDs in no particular order, so ties do not fall by position.
			rng.Shuffle(n, func(i, j int) { s.IDs[i], s.IDs[j] = s.IDs[j], s.IDs[i] })
			tree, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			sameTree(t, tree.root, buildBySort(s, perm, 0), name+":")
		}
	}
}

// TestKNNClampsL: asked for far more neighbours than it indexes, the tree
// reserves for what it holds.
func TestKNNClampsL(t *testing.T) {
	tree, s := buildRandom(t, 11, 100, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := tree.KNN(points.Vector{0.5, 0.5, 0.5}, 3<<20)
	runtime.ReadMemStats(&after)
	if len(got) != s.Len() {
		t.Fatalf("kept %d items, want all %d", len(got), s.Len())
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Key.Less(got[i].Key) {
			t.Fatalf("rank %d out of order", i)
		}
	}
	// TotalAlloc is process-wide, so leave room for the runtime's own
	// allocations; reserving l slots would take 72 MiB.
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(s.Len()*24+64<<10); grew > limit {
		t.Errorf("l = 3·2²⁰ over %d points allocated %d bytes, want at most %d", s.Len(), grew, limit)
	}
}

func BenchmarkBuild(b *testing.B) {
	s := points.GenUniformVectors(xrand.New(1), 1<<16, 3)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Build(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDTreeKNN times one ℓ = 64 search unbounded, and bounded by a
// ceiling at the 8th key — a gather-wave search whose probe already holds
// the tight bound, so the descent prunes slabs from the start.
func BenchmarkKDTreeKNN(b *testing.B) {
	rng := xrand.New(1)
	s := points.GenUniformVectors(rng, 1<<16, 3)
	tree, err := Build(s)
	if err != nil {
		b.Fatal(err)
	}
	q := points.Vector{0.5, 0.5, 0.5}
	b.Run("unbounded", func(b *testing.B) {
		for b.Loop() {
			tree.KNN(q, 64)
		}
	})
	ceil := tree.KNN(q, 8)[7].Key
	b.Run("bounded", func(b *testing.B) {
		for b.Loop() {
			tree.KNN(q, 64, ceil)
		}
	})
}

func BenchmarkBruteKNNBaseline(b *testing.B) {
	rng := xrand.New(1)
	s := points.GenUniformVectors(rng, 1<<16, 3)
	q := points.Vector{0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BruteKNN(q, 64)
	}
}
