package metricindex

import (
	"math"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

func TestKCenterDeterministicPartition(t *testing.T) {
	set := points.GenUniformScalars(xrand.NewStream(9, 0), 500, points.PaperDomain)
	a := KCenter(set.Pts, points.ScalarMetric, 5, 123)
	b := KCenter(set.Pts, points.ScalarMetric, 5, 123)
	if len(a.Anchors) != 5 || len(a.Assign) != 500 {
		t.Fatalf("clustering shape: %d anchors, %d assignments", len(a.Anchors), len(a.Assign))
	}
	for i := range a.Anchors {
		if a.Anchors[i] != b.Anchors[i] {
			t.Fatalf("anchor %d differs across identical runs: %d != %d", i, a.Anchors[i], b.Anchors[i])
		}
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment %d differs across identical runs", i)
		}
	}
	total := 0
	for _, s := range a.Sizes {
		total += s
	}
	if total != 500 {
		t.Fatalf("cluster sizes sum to %d, want 500", total)
	}
}

// Every point must sit in the cluster of its nearest anchor (ties toward
// the earlier-picked anchor) — the invariant the radius summaries and the
// admission proof both lean on.
func TestKCenterAssignsNearestAnchor(t *testing.T) {
	set := points.GenUniformScalars(xrand.NewStream(4, 1), 300, points.PaperDomain)
	cl := KCenter(set.Pts, points.ScalarMetric, 7, 55)
	for i, c := range cl.Assign {
		got := points.ScalarMetric(set.Pts[i], set.Pts[cl.Anchors[c]])
		for a := range cl.Anchors {
			d := points.ScalarMetric(set.Pts[i], set.Pts[cl.Anchors[a]])
			if d < got || (d == got && a < c) {
				t.Fatalf("point %d assigned to cluster %d (dist %d) but anchor %d is nearer (dist %d)", i, c, got, a, d)
			}
		}
	}
}

func TestKCenterSmallInputs(t *testing.T) {
	if cl := KCenter(nil, points.ScalarMetric, 3, 1); len(cl.Anchors) != 0 {
		t.Fatalf("empty input produced %d anchors", len(cl.Anchors))
	}
	pts := []points.Scalar{10, 20}
	cl := KCenter(pts, points.ScalarMetric, 5, 1)
	if len(cl.Anchors) != 2 {
		t.Fatalf("k > n should clamp anchors to n: got %d", len(cl.Anchors))
	}
}

func TestApproxMedoidAndRadius(t *testing.T) {
	pts := []points.Scalar{0, 10, 20, 30, 100}
	keyDist := func(d uint64) float64 { return float64(d) }
	m := ApproxMedoid(pts, points.ScalarMetric)
	if m < 0 || m >= len(pts) {
		t.Fatalf("medoid index %d out of range", m)
	}
	// With ≤16 points every point is a candidate, so the exact 1-median of
	// the max-distance objective must win: 30 (radius 70) beats 0 (100),
	// 10 (90), 20 (80) and 100 (100).
	if pts[m] != 30 {
		t.Fatalf("medoid %d, want 30", pts[m])
	}
	if r := Radius(pts, pts[m], points.ScalarMetric, keyDist); r != 70 {
		t.Fatalf("radius %g, want 70", r)
	}
	if ApproxMedoid(nil, points.ScalarMetric) != -1 {
		t.Fatal("empty medoid should be -1")
	}
	if r := Radius(nil, points.Scalar(0), points.ScalarMetric, keyDist); r != 0 {
		t.Fatalf("empty radius %g, want 0", r)
	}
}

func TestAdmit(t *testing.T) {
	cases := []struct {
		centerDist, radius, ub float64
		want                   bool
	}{
		{centerDist: 5, radius: 2, ub: 4, want: true},    // 5 ≤ 4+2
		{centerDist: 6, radius: 2, ub: 4, want: true},    // exactly on the boundary
		{centerDist: 6.1, radius: 2, ub: 4, want: false}, // provably outside
		{centerDist: 1e12, radius: 0, ub: 0, want: false},
		{centerDist: 1e12, radius: 0, ub: math.Inf(1), want: true}, // no bound yet
		{centerDist: math.NaN(), radius: 1, ub: 1, want: true},     // conservative
	}
	for i, c := range cases {
		if got := Admit(c.centerDist, c.radius, c.ub); got != c.want {
			t.Errorf("case %d: Admit(%g, %g, %g) = %v, want %v", i, c.centerDist, c.radius, c.ub, got, c.want)
		}
	}
	// The slack must admit a bound that differs only by float rounding.
	if !Admit(0.1+0.2, 0.1, 0.2) {
		t.Error("rounding-level overshoot must still admit")
	}
}

// The end-to-end pruning property on the package's own pieces: for a
// clustered dataset, prune shards against a correct upper bound and verify
// that the surviving shards hold the entire exact top-ℓ.
func TestPruningPreservesTopL(t *testing.T) {
	const n, k, l = 2000, 8, 17
	set, _ := points.GenGaussianClusters(xrand.NewStream(7, 0), n, 3, 6, 0.03)
	keyDist := func(d uint64) float64 { return math.Sqrt(keys.DecodeFloat(d)) }
	cl := KCenter(set.Pts, points.L2, k, 99)

	type shard struct {
		members []int
		center  points.Vector
		radius  float64
	}
	shards := make([]shard, k)
	for c := range shards {
		shards[c].center = set.Pts[cl.Anchors[c]]
	}
	for i, c := range cl.Assign {
		shards[c].members = append(shards[c].members, i)
	}
	for c := range shards {
		var r float64
		for _, i := range shards[c].members {
			if d := keyDist(points.L2(shards[c].center, set.Pts[i])); d > r {
				r = d
			}
		}
		shards[c].radius = r
	}

	totalPruned := 0
	for qi := 0; qi < 50; qi++ {
		q := points.GenUniformVectors(xrand.NewStream(100+uint64(qi), 0), 1, 3).Pts[0]
		exact := set.BruteKNN(q, l)
		ub := keyDist(exact[len(exact)-1].Key.Dist)
		admitted := make(map[int]bool, k)
		pruned := 0
		for c := range shards {
			if Admit(keyDist(points.L2(q, shards[c].center)), shards[c].radius, ub) {
				admitted[c] = true
			} else {
				pruned++
			}
		}
		for _, it := range exact {
			idx := int(it.Key.ID - 1) // BruteKNN ran over IDs 1..n in order
			if !admitted[cl.Assign[idx]] {
				t.Fatalf("query %d: exact neighbor %v lives in pruned shard %d", qi, it.Key, cl.Assign[idx])
			}
		}
		totalPruned += pruned
	}
	if totalPruned == 0 {
		t.Fatal("tightly clustered data should prune at least one shard across 50 queries")
	}
}

// BenchmarkApproxMedoid is the summary pass a node pays at bring-up for an
// anchorless shard, at the size of the paper's scalar shard.
func BenchmarkApproxMedoid(b *testing.B) {
	set := points.GenUniformScalars(xrand.New(1), 1<<20, points.PaperDomain)
	b.ReportAllocs()
	for b.Loop() {
		ApproxMedoid(set.Pts, points.ScalarMetric)
	}
}
