// Package metricindex is the data-aware sharding layer of the reproduction:
// deterministic seeded k-center (anchor) clustering over any point type, the
// per-shard centroid + radius summaries a serving node reports to its
// frontend, and the triangle-inequality admission test the frontend's pruned
// dispatch runs against those summaries.
//
// The geometry is the classic metric-index argument (the esfragbag
// anchor-point index is the shape reference): if a query q has some ℓ-th
// best distance upper bound ub, then a shard whose centroid c and radius r
// satisfy d(q, c) > ub + r cannot contain any point within ub of q — every
// point p of the shard has d(q, p) ≥ d(q, c) − r > ub — so the shard is
// provably prunable and the answer over the remaining shards is bit-identical
// to full scatter. Everything here works on true (triangle-inequality)
// distances, which each point type derives from its encoded keys; distances
// that are not metrics (cosine) must not be given a pruner.
package metricindex

import (
	"fmt"
	"math"
	"slices"

	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// Clustering is the result of a k-center run: the anchor (center) point
// index per cluster, each point's cluster, and the cluster sizes. Clusters
// may be empty when the dataset holds duplicate points (two identical
// anchors tie every point toward the lower cluster).
type Clustering struct {
	Anchors []int // per cluster: index of its anchor point
	Assign  []int // per point: its cluster
	Sizes   []int // per cluster: member count
}

// KCenter clusters pts into k clusters with the Gonzalez farthest-first
// traversal: the first anchor is drawn from the seed, every further anchor
// is the point farthest from all chosen anchors, and each point joins its
// nearest anchor. All comparisons happen on the metric's encoded keys
// (total-order uint64s) with index-order tie-breaks, so the clustering is a
// deterministic function of (pts, k, seed) — every node of a cluster
// recomputes the identical partition from the shared seed, which is what
// lets anchor-sharded deployments stay bit-identical across restarts and
// re-joins.
func KCenter[P any](pts []P, metric points.Metric[P], k int, seed uint64) Clustering {
	n := len(pts)
	if k > n {
		k = n
	}
	cl := Clustering{
		Anchors: make([]int, 0, k),
		Assign:  make([]int, n),
		Sizes:   make([]int, k),
	}
	if n == 0 || k == 0 {
		return cl
	}
	first := int(xrand.NewStream(seed, 0).Uint64N(uint64(n)))
	cl.Anchors = append(cl.Anchors, first)
	batch := points.BatchOf(metric)
	// minDist[i] is the encoded distance from point i to its nearest chosen
	// anchor; Assign tracks which anchor that is.
	minDist := make([]uint64, n)
	batch(pts, pts[first], minDist)
	for len(cl.Anchors) < k {
		far := 0
		for i := 1; i < n; i++ {
			if minDist[i] > minDist[far] {
				far = i
			}
		}
		a := len(cl.Anchors)
		cl.Anchors = append(cl.Anchors, far)
		batch.ForBlocks(pts, pts[far], func(lo int, dist []uint64) {
			for j, d := range dist {
				if d < minDist[lo+j] {
					minDist[lo+j] = d
					cl.Assign[lo+j] = a
				}
			}
		})
	}
	for _, c := range cl.Assign {
		cl.Sizes[c]++
	}
	return cl
}

// ApproxMedoid returns the index of an approximate medoid of pts: among a
// deterministic strided sample of about 16 candidates, the one whose
// farthest point is nearest (ties toward the earlier candidate). It is the
// center a node falls back to when its shard carries no explicit anchor,
// paid once at shard load. It reads the shard once: each block of points is
// measured against every candidate before the next block is loaded.
func ApproxMedoid[P any](pts []P, metric points.Metric[P]) int {
	n := len(pts)
	if n == 0 {
		return -1
	}
	stride := max(n/16, 1)
	batch := points.BatchOf(metric)
	// far[i] is the largest distance seen so far from candidate i·stride.
	far := make([]uint64, (n+stride-1)/stride)
	dist := make([]uint64, min(n, medoidBlock))
	for lo := 0; lo < n; lo += medoidBlock {
		block := pts[lo:min(lo+medoidBlock, n)]
		out := dist[:len(block)]
		for i := range far {
			batch(block, pts[i*stride], out)
			far[i] = max(far[i], slices.Max(out))
		}
	}
	best := 0
	for i := range far {
		if far[i] < far[best] {
			best = i
		}
	}
	return best * stride
}

// medoidBlock is how many points ApproxMedoid measures per kernel call, the
// block size of points.Batch.ForBlocks: small enough that a block stays in
// cache across every candidate.
const medoidBlock = 512

// Radius returns the true-distance radius of pts around center: the
// keyDist-decoded distance from the center to its farthest point (0 for an
// empty shard). keyDist decodes an order-preserving encoding, so the
// farthest point in encoded distance is the farthest in true distance. The
// kernel measures metric(point, center); metrics are symmetric, so that is
// the distance from the center.
func Radius[P any](pts []P, center P, metric points.Metric[P], keyDist func(uint64) float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	var far uint64
	points.BatchOf(metric).ForBlocks(pts, center, func(_ int, dist []uint64) {
		far = max(far, slices.Max(dist))
	})
	return keyDist(far)
}

// admitSlack is the relative safety margin of the admission test. The exact
// admission condition d(q,c) ≤ ub + r is computed on float64 distances that
// each carry a few ulps of rounding (metric accumulation, sqrt decode,
// uint64→float64 conversion, ~1e-16 relative each); the margin is seven
// orders of magnitude wider than the accumulated error, so a boundary-tied
// shard is always admitted — an extra admission costs one redundant node
// contact, a wrong pruning would change answers.
const admitSlack = 1e-9

// Admit reports whether a shard with the given centroid distance and radius
// may hold one of the ℓ nearest neighbors of a query whose ℓ-th best
// distance is bounded by ub. It is conservative: any shard that could
// intersect the query ball is admitted (including every shard when ub is
// +Inf or any input is NaN); only shards provably outside it are refused.
func Admit(centerDist, radius, ub float64) bool {
	if math.IsInf(ub, 1) {
		return true
	}
	bound := ub + radius
	if math.IsNaN(centerDist) || math.IsNaN(bound) {
		return true
	}
	return centerDist <= bound+admitSlack*(bound+centerDist)
}

// AdmitSub runs the admission test for one shard against a whole batch: it
// returns, in ascending order, the batch indices i for which the shard may
// hold one of the ℓ nearest neighbors of point i — Admit over the point's
// centroid distance centerDist[i] and its per-point upper bound ub[i] —
// skipping points whose mask entry is true (already sent to the shard by an
// earlier wave). A nil mask skips nothing. The result is the shard's
// sub-batch of a pruned batch dispatch; an empty result means the shard is
// provably irrelevant to every remaining point and is not contacted at all.
func AdmitSub(centerDist, ub []float64, radius float64, mask []bool) []int {
	var sub []int
	for i := range centerDist {
		if mask != nil && mask[i] {
			continue
		}
		if Admit(centerDist[i], radius, ub[i]) {
			sub = append(sub, i)
		}
	}
	return sub
}

// WirePruner gives a frontend the metric-space geometry of one served point
// type, over wire encodings: it decodes query and centroid points with the
// type's codec, measures their true distance, and converts encoded distance
// keys back to true distances. It implements the transport's Pruner
// interface without the transport learning what a point is.
type WirePruner[P any] struct {
	// Codec decodes the wire encoding of the served point type.
	Codec wire.PointCodec[P]
	// Metric is the type's encoded-distance metric.
	Metric points.Metric[P]
	// Key converts an encoded distance key to the true metric distance
	// (e.g. sqrt of the decoded squared L2 distance). The true distances
	// must satisfy the triangle inequality.
	Key func(uint64) float64
	// Compat validates that a query point is comparable to a centroid
	// (e.g. equal dimensions); nil means always comparable.
	Compat func(q, c P) error
}

// CenterDist returns the true metric distance between an encoded query
// point and an encoded shard centroid.
func (p *WirePruner[P]) CenterDist(query, center []byte) (float64, error) {
	q, err := p.Codec.Decode(query)
	if err != nil {
		return 0, fmt.Errorf("metricindex: query point: %w", err)
	}
	c, err := p.Codec.Decode(center)
	if err != nil {
		return 0, fmt.Errorf("metricindex: shard centroid: %w", err)
	}
	if p.Compat != nil {
		if err := p.Compat(q, c); err != nil {
			return 0, fmt.Errorf("metricindex: %w", err)
		}
	}
	return p.Key(p.Metric(q, c)), nil
}

// KeyDist converts one encoded distance key to the true metric distance it
// encodes.
func (p *WirePruner[P]) KeyDist(dist uint64) float64 { return p.Key(dist) }
