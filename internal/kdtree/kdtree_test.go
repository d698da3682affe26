package kdtree

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/metricindex"
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

// span is one node of a tree as the descent derives it: slot i covers
// points [lo, hi) at depth, and splits along axis when it is inner.
type span struct{ i, lo, hi, depth, axis int }

// inner reports whether the node splits rather than being a bucket.
func (sp span) inner() bool { return sp.hi-sp.lo > bucket }

// spans walks tree's derived ranges from the root, parents before children
// and left before right, as KNN's descent reads them.
func spans(tree *Tree) []span {
	var out []span
	var walk func(sp span)
	walk = func(sp span) {
		out = append(out, sp)
		if !sp.inner() {
			return
		}
		mid, next := (sp.lo+sp.hi)/2, (sp.axis+1)%tree.dim
		walk(span{2*sp.i + 1, sp.lo, mid, sp.depth + 1, next})
		walk(span{2*sp.i + 2, mid, sp.hi, sp.depth + 1, next})
	}
	if tree.Len() > 0 {
		walk(span{0, 0, tree.Len(), 0, 0})
	}
	return out
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
	if len(tree.splits) != 0 || tree.Len() != 0 {
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

// TestTreeBalanced: median splits keep the tree full — fewer than n/4
// split slots (so the slice stays a small fraction of the points), every
// inner node inside the slice, every leaf at least half a bucket unless the
// root is one, no leaf more than one level above the deepest, and the
// slice exactly the slots above the deepest leaves.
func TestTreeBalanced(t *testing.T) {
	for _, n := range []int{1, 8, 9, 17, 100, 1023, 4096} {
		tree, _ := buildRandom(t, 10, n, 2)
		if limit := n / 4; len(tree.splits) > limit {
			t.Errorf("n=%d: %d split slots, want at most %d", n, len(tree.splits), limit)
		}
		var depths []int
		for _, sp := range spans(tree) {
			switch {
			case sp.inner() && sp.i >= len(tree.splits):
				t.Errorf("n=%d: inner node %d past the %d split slots", n, sp.i, len(tree.splits))
			case sp.inner():
			case sp.i > 0 && sp.hi-sp.lo < bucket/2:
				t.Errorf("n=%d: leaf %d holds %d points, want at least %d", n, sp.i, sp.hi-sp.lo, bucket/2)
			default:
				depths = append(depths, sp.depth)
			}
		}
		if lo, hi := slices.Min(depths), slices.Max(depths); hi-lo > 1 || 1<<hi-1 != len(tree.splits) {
			t.Errorf("n=%d: leaves at depths %d..%d over %d split slots", n, lo, hi, len(tree.splits))
		}
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
// element becomes the split — what Build did before it selected the median.
// It records each inner node's split in splits (grown as needed) and leaves
// each leaf's points in its range of perm.
func buildBySort(s *points.Set[points.Vector], splits *[]float64, perm []int, i, axis int) {
	if len(perm) <= bucket {
		return
	}
	for len(*splits) <= i {
		*splits = append(*splits, 0)
	}
	sort.Slice(perm, func(a, b int) bool {
		va, vb := s.Pts[perm[a]][axis], s.Pts[perm[b]][axis]
		if va != vb {
			return va < vb
		}
		return s.IDs[perm[a]] < s.IDs[perm[b]]
	})
	mid := len(perm) / 2
	(*splits)[i] = s.Pts[perm[mid]][axis]
	next := (axis + 1) % len(s.Pts[0])
	buildBySort(s, splits, perm[:mid], 2*i+1, next)
	buildBySort(s, splits, perm[mid:], 2*i+2, next)
}

// TestBuildMatchesFullSortReference: selecting the median must produce, slot
// for slot, the splits that sorting every range produces, and each derived
// leaf range holding the same points (in any order), stored with their own
// coordinates and labels — on distinct coordinates, on coordinates drawn
// from three values (long runs of ties broken by ID), and when every point
// is the same point.
func TestBuildMatchesFullSortReference(t *testing.T) {
	rng := xrand.New(31)
	inputs := map[string]func() points.Vector{
		"random":    func() points.Vector { return points.Vector{rng.Float64(), rng.Float64(), rng.Float64()} },
		"duplicate": func() points.Vector { return points.Vector{float64(rng.IntN(3)), float64(rng.IntN(3))} },
		"all-equal": func() points.Vector { return points.Vector{0.5, 0.5} },
	}
	for name, draw := range inputs {
		for _, n := range []int{1, 7, 8, 9, 16, 17, 257, 1000} {
			pts := make([]points.Vector, n)
			labels := make([]float64, n)
			for i := range pts {
				pts[i], labels[i] = draw(), float64(i)
			}
			s, err := points.NewSet(pts, labels, points.L2, 1)
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
			var want []float64
			buildBySort(s, &want, perm, 0, 0)
			if !slices.Equal(tree.splits, want) {
				t.Fatalf("%s n=%d: splits %v, reference %v", name, n, tree.splits, want)
			}
			// Within a bucket the scan order is free, so each leaf is held
			// to the reference's points as a set.
			byID := make(map[uint64]int, n)
			for i, id := range s.IDs {
				byID[id] = i
			}
			for _, sp := range spans(tree) {
				if sp.inner() {
					continue
				}
				got := slices.Sorted(slices.Values(tree.ids[sp.lo:sp.hi]))
				ref := make([]uint64, 0, bucket)
				for _, i := range perm[sp.lo:sp.hi] {
					ref = append(ref, s.IDs[i])
				}
				if slices.Sort(ref); !slices.Equal(got, ref) {
					t.Fatalf("%s n=%d leaf [%d, %d): IDs %v, reference %v", name, n, sp.lo, sp.hi, got, ref)
				}
			}
			dim := len(pts[0])
			for j, id := range tree.ids {
				if i := byID[id]; tree.labels[j] != labels[i] || !slices.Equal(tree.coords[j*dim:(j+1)*dim], pts[i]) {
					t.Fatalf("%s n=%d leaf slot %d: coordinates or label are not those of ID %d", name, n, j, id)
				}
			}
		}
	}
}

// TestKNNBucketsAndSplitTies holds the bucket scan and the plane test to
// brute force where they can go wrong: every n from one point to three
// buckets and one, coordinates from three values so that points equal to a
// split fall on both of its sides, and queries that lie exactly on a
// splitting plane, for l of 1, a bucket, n and past n, with and without a
// ceiling.
func TestKNNBucketsAndSplitTies(t *testing.T) {
	rng := xrand.New(44)
	tiesLeft := 0
	for _, dim := range []int{1, 3, 8} {
		for n := 1; n <= 3*bucket+1; n++ {
			pts := make([]points.Vector, n)
			for i := range pts {
				pts[i] = make(points.Vector, dim)
				for a := range pts[i] {
					pts[i][a] = float64(rng.IntN(3))
				}
			}
			s, err := points.NewSet(pts, nil, points.L2, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng.Shuffle(n, func(i, j int) { s.IDs[i], s.IDs[j] = s.IDs[j], s.IDs[i] })
			tree, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			// Queries: every point, and each inner node's plane through a
			// point, besides a few off the grid.
			var queries []points.Vector
			for _, sp := range spans(tree) {
				if !sp.inner() {
					continue
				}
				split := tree.splits[sp.i]
				for j := sp.lo; j < (sp.lo+sp.hi)/2; j++ {
					if tree.coords[j*dim+sp.axis] == split {
						tiesLeft++
					}
				}
				q := slices.Clone(pts[rng.IntN(n)])
				q[sp.axis] = split
				queries = append(queries, q)
			}
			for range 3 {
				q := make(points.Vector, dim)
				for a := range q {
					q[a] = 2.5*rng.Float64() - 0.25
				}
				queries = append(queries, q, pts[rng.IntN(n)])
			}
			for _, q := range queries {
				sorted := s.BruteKNN(q, n)
				for _, ceil := range []keys.Key{keys.MaxKey, sorted[n/2].Key, sorted[n-1].Key} {
					below := sort.Search(n, func(i int) bool { return !sorted[i].Key.Less(ceil) })
					for _, l := range []int{1, bucket, n, n + 5} {
						got, want := tree.KNN(q, l), sorted[:min(l, below)]
						if ceil != keys.MaxKey {
							got = tree.KNN(q, l, ceil)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("dim=%d n=%d q=%v l=%d ceil=%v:\n got %v\nwant %v", dim, n, q, l, ceil, got, want)
						}
					}
				}
			}
		}
	}
	if tiesLeft == 0 {
		t.Errorf("no split had a tie on its left side: the input does not exercise split ties")
	}
}

// TestKNNAllocatesOnlyTheResult pins a search at one allocation per call —
// the returned slice — bounded and unbounded.
func TestKNNAllocatesOnlyTheResult(t *testing.T) {
	tree, _ := buildRandom(t, 12, 4096, 3)
	q := points.Vector{0.5, 0.5, 0.5}
	ceil := tree.KNN(q, 8)[7].Key
	if allocs := testing.AllocsPerRun(100, func() { tree.KNN(q, 64) }); allocs != 1 {
		t.Errorf("unbounded KNN made %v allocations per call, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { tree.KNN(q, 64, ceil) }); allocs != 1 {
		t.Errorf("bounded KNN made %v allocations per call, want 1", allocs)
	}
}

// TestKNNConcurrentReaders: a node answers dispatches concurrently from one
// tree, so concurrent searches must each get the sequential answer (and,
// under -race, share nothing mutable).
func TestKNNConcurrentReaders(t *testing.T) {
	tree, _ := buildRandom(t, 13, 2000, 3)
	rng := xrand.New(14)
	queries := make([]points.Vector, 64)
	want := make([][]points.Item, len(queries))
	for i := range queries {
		queries[i] = points.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		want[i] = tree.KNN(queries[i], 16)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 4 * len(queries) {
				i := (r + g*7) % len(queries)
				if got := tree.KNN(queries[i], 16, want[i][12].Key); !slices.Equal(got, want[i][:12]) {
					t.Errorf("goroutine %d query %d bounded: %v, want %v", g, i, got, want[i][:12])
					return
				}
				if got := tree.KNN(queries[i], 16); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d query %d: %v, want %v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
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
// the tight bound, so the descent prunes slabs from the start. Both repeat
// one query, so the tree's path stays in cache; stream and clustered_l512
// time what a serving node sees: stream is one op per query of a fresh
// query stream over four 65 536-point uniform shards (one ℓ = 64 search on
// each, as a full-scatter wave runs them), clustered_l512 one ℓ = 512
// search on pruned_mixed's first blob shard from a query near its anchor.
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

	const shards, dim, sigma = 4, 3, 0.1
	uniform := []*Tree{tree}
	for len(uniform) < shards {
		t, err := Build(points.GenUniformVectors(rng, 1<<16, dim))
		if err != nil {
			b.Fatal(err)
		}
		uniform = append(uniform, t)
	}
	b.Run("stream", func(b *testing.B) {
		for b.Loop() {
			q := points.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
			for _, t := range uniform {
				t.KNN(q, 64)
			}
		}
	})

	blobs, _ := points.GenGaussianClusters(rng, shards<<16, dim, shards, sigma)
	cl := metricindex.KCenter(blobs.Pts, points.L2, shards, 1)
	var shard []points.Vector
	for j, c := range cl.Assign {
		if c == 0 {
			shard = append(shard, blobs.Pts[j])
		}
	}
	set, err := points.NewSet(shard, nil, points.L2, 1)
	if err != nil {
		b.Fatal(err)
	}
	clustered, err := Build(set)
	if err != nil {
		b.Fatal(err)
	}
	anchor := blobs.Pts[cl.Anchors[0]]
	b.Run("clustered_l512", func(b *testing.B) {
		for b.Loop() {
			q := make(points.Vector, dim)
			for j := range q {
				q[j] = anchor[j] + rng.NormFloat64()*sigma
			}
			clustered.KNN(q, 512)
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
