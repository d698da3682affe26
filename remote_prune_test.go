package distknn_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"distknn"
	"distknn/internal/metricindex"
	"distknn/internal/points"
	"distknn/internal/testutil"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// prunedTwins serves the same shards twice — once with metric-index pruned
// dispatch, once with plain full scatter — so tests can demand the two
// clusters agree bit for bit on every answer. The metamorphic property under
// test: pruning is an optimization of *where* the query travels, never of
// *what* it returns.
func prunedTwins[P any](t *testing.T, pt distknn.PointType[P], k int, seed uint64, shards distknn.ShardProvider[P]) (pruned, full *distknn.RemoteCluster[P]) {
	t.Helper()
	_, pruned = testutil.StartCluster(t, pt, k, seed, shards, distknn.NodeOptions{},
		distknn.FrontendOptions{Pruner: pt.Pruner()})
	_, full = testutil.StartCluster(t, pt, k, seed, shards, distknn.NodeOptions{}, distknn.FrontendOptions{})
	return pruned, full
}

// comparePruned sends every query to both twins and requires bit-identical
// neighbors and boundaries. Only Items and Boundary are compared: the pruned
// path reports its own stats convention (Messages = nodes contacted,
// Rounds = dispatch waves), so protocol-cost fields legitimately differ.
// Returns the total number of nodes the pruned frontend contacted across the
// stream, counting k for a query answered by full scatter. A frontend whose
// point type refuses a pruner (cosine) serves full scatter and reports BSP
// mesh stats instead, so the nodes-contacted bound only applies to replies
// in the pruned convention (Contacts > 0).
func comparePruned[P any](t *testing.T, pruned, full *distknn.RemoteCluster[P], k int, queries []P, l int) int64 {
	t.Helper()
	var contacts int64
	for i, q := range queries {
		pitems, pstats, err := pruned.KNN(q, l)
		if err != nil {
			t.Fatalf("pruned query %d: %v", i, err)
		}
		fitems, fstats, err := full.KNN(q, l)
		if err != nil {
			t.Fatalf("full-scatter query %d: %v", i, err)
		}
		if len(pitems) != len(fitems) {
			t.Fatalf("query %d: pruned %d items, full %d", i, len(pitems), len(fitems))
		}
		for j := range fitems {
			if pitems[j] != fitems[j] {
				t.Fatalf("query %d item %d: pruned %+v != full %+v", i, j, pitems[j], fitems[j])
			}
		}
		if pstats.Boundary != fstats.Boundary {
			t.Fatalf("query %d: pruned boundary %v != full %v", i, pstats.Boundary, fstats.Boundary)
		}
		if pstats.Contacts > 0 {
			if pstats.Contacts > int64(k) {
				t.Fatalf("query %d: pruned contacted %d of %d nodes", i, pstats.Contacts, k)
			}
			contacts += pstats.Contacts
		} else {
			contacts += int64(k)
		}
	}
	return contacts
}

// compareClassify does the same for the classification path, whose leader
// vote the pruned frontend replicates from the merged neighbor set.
func compareClassify[P any](t *testing.T, pruned, full *distknn.RemoteCluster[P], queries []P, l int) {
	t.Helper()
	for i, q := range queries {
		pv, _, err := pruned.Classify(q, l)
		if err != nil {
			t.Fatalf("pruned classify %d: %v", i, err)
		}
		fv, _, err := full.Classify(q, l)
		if err != nil {
			t.Fatalf("full classify %d: %v", i, err)
		}
		if pv != fv {
			t.Fatalf("classify %d: pruned %g != full %g", i, pv, fv)
		}
	}
}

func pruneScalarQuery(seed uint64, i int) distknn.Scalar {
	return distknn.Scalar(xrand.NewStream(seed, 1<<45+uint64(i)).Uint64N(points.PaperDomain))
}

// TestPrunedScalarBitIdentical: anchor-clustered scalar shards answered
// through pruned dispatch agree bit for bit with full scatter, and with the
// brute-force oracle over the global dataset (anchor shards carry explicit
// global IDs, so the oracle's keys match exactly).
func TestPrunedScalarBitIdentical(t *testing.T) {
	const (
		k       = 4
		perNode = 120
		seed    = 1009
		queries = 60
		l       = 9
	)
	pruned, full := prunedTwins(t, distknn.ScalarPoints(), k, seed, distknn.AnchorShards(seed, perNode))

	qs := make([]distknn.Scalar, queries)
	for i := range qs {
		qs[i] = pruneScalarQuery(seed, i)
	}
	comparePruned(t, pruned, full, k, qs, l)

	cqs := make([]distknn.Scalar, 20)
	for i := range cqs {
		cqs[i] = pruneScalarQuery(seed, 5000+i)
	}
	compareClassify(t, pruned, full, cqs, l)

	// Oracle: the anchor providers number point j of the global stream as ID
	// j+1, so a brute scan over the same stream predicts the exact keys.
	pts, labels := globalScalarStream(seed, k, perNode)
	set, err := points.NewSet(pts, labels, points.ScalarMetric, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q := qs[i]
		got, _, err := pruned.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		want := set.BruteKNN(q, l)
		for j := range want {
			if got[j].Key != want[j].Key {
				t.Fatalf("query %d neighbor %d: pruned %v != oracle %v", i, j, got[j].Key, want[j].Key)
			}
		}
	}
}

// globalScalarStream rebuilds the global dataset the anchor-clustered scalar
// provider partitions: the concatenation of the k per-node uniform streams,
// in global-ID order.
func globalScalarStream(seed uint64, k, perNode int) ([]points.Scalar, []float64) {
	var pts []points.Scalar
	var labels []float64
	for node := 0; node < k; node++ {
		set := points.GenUniformScalars(xrand.NewStream(seed, uint64(node)), perNode, points.PaperDomain)
		pts = append(pts, set.Pts...)
		labels = append(labels, set.Labels...)
	}
	return pts, labels
}

// TestPrunedVectorBitIdentical runs the metamorphic check on L2 vectors over
// anchor-clustered uniform data — the unfavorable regime, where balls
// overlap heavily and most queries must still scatter widely. Correctness
// may not depend on the workload being kind.
func TestPrunedVectorBitIdentical(t *testing.T) {
	const (
		k       = 4
		perNode = 100
		dim     = 4
		seed    = 2025
		queries = 50
		l       = 8
	)
	pruned, full := prunedTwins(t, distknn.VectorPoints(), k, seed, distknn.AnchorVectorShards(seed, perNode, dim))
	qs := make([]distknn.Vector, queries)
	for i := range qs {
		qs[i] = vectorQueryAt(seed, dim, i)
	}
	comparePruned(t, pruned, full, k, qs, l)

	cqs := make([]distknn.Vector, 15)
	for i := range cqs {
		cqs[i] = vectorQueryAt(seed, dim, 5000+i)
	}
	compareClassify(t, pruned, full, cqs, l)

	// Regression rides the pruned path too, replaying the mesh's per-seat
	// summation fold — TestPrunedRegressBitIdentical pins the bits; this is
	// the smoke check that the values agree at all.
	for i := 0; i < 5; i++ {
		q := vectorQueryAt(seed, dim, 7000+i)
		pv, _, err := pruned.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		fv, _, err := full.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		if pv != fv {
			t.Fatalf("regress %d: pruned %g != full %g", i, pv, fv)
		}
	}
}

// gaussianQueries draws queries near the blob centers of the Gaussian
// workload — the regime where the triangle inequality actually bites.
func gaussianQueries(seed uint64, n, k, perNode, dim int, sigma float64) []distknn.Vector {
	_, centers := points.GenGaussianClusters(xrand.NewStream(seed, 0), k*perNode, dim, k, sigma)
	qs := make([]distknn.Vector, n)
	for i := range qs {
		rng := xrand.NewStream(seed, 1<<41+uint64(i))
		c := centers[i%k]
		q := make(distknn.Vector, dim)
		for j := range q {
			q[j] = c[j] + rng.NormFloat64()*sigma
		}
		qs[i] = q
	}
	return qs
}

// requirePruning is the gate on the favorable regime: on well-separated
// blobs a stream that contacted k−1 or more nodes per query means the
// pruning machinery is wired in but doing nothing.
func requirePruning(t *testing.T, what string, contacts int64, k, queries int) {
	t.Helper()
	perQuery := float64(contacts) / float64(queries)
	if perQuery >= float64(k-1) {
		t.Fatalf("%s: pruning silently disabled: %.2f nodes contacted per query >= k-1 = %d", what, perQuery, k-1)
	}
	t.Logf("%s: %.2f nodes contacted per query", what, perQuery)
}

// TestPrunedGaussianPrunes is the favorable-regime check: on well-separated
// Gaussian blobs with anchor-clustered shards, pruned dispatch must both
// stay bit-identical to full scatter AND actually skip nodes — otherwise
// the metric index is decorative.
func TestPrunedGaussianPrunes(t *testing.T) {
	const (
		k       = 6
		perNode = 80
		dim     = 3
		sigma   = 0.02
		seed    = 31337
		queries = 60
		l       = 7
	)
	shards := distknn.AnchorGaussianShards(seed, perNode, dim, sigma)
	pruned, full := prunedTwins(t, distknn.VectorPoints(), k, seed, shards)

	qs := gaussianQueries(seed, queries, k, perNode, dim, sigma)
	requirePruning(t, "singles", comparePruned(t, pruned, full, k, qs, l), k, queries)

	compareClassify(t, pruned, full, qs[:15], l)
}

// TestPrunedBitVectorBitIdentical covers the medoid path: uniform bit-vector
// shards pin no centroid, so each node summarizes itself around an
// approximate medoid. Hamming balls over uniform data barely prune, but the
// answers must not move.
func TestPrunedBitVectorBitIdentical(t *testing.T) {
	const (
		k       = 3
		perNode = 100
		words   = 2
		seed    = 404
		queries = 40
		l       = 6
	)
	pruned, full := prunedTwins(t, distknn.BitVectorPoints(), k, seed, distknn.UniformBitVectorShards(seed, perNode, words))
	qs := make([]distknn.BitVector, queries)
	for i := range qs {
		qs[i] = bitVectorQueryAt(seed, words, i)
	}
	comparePruned(t, pruned, full, k, qs, l)

	cqs := make([]distknn.BitVector, 10)
	for i := range cqs {
		cqs[i] = bitVectorQueryAt(seed, words, 5000+i)
	}
	compareClassify(t, pruned, full, cqs, l)
}

// TestPrunedDispatchConcurrent hammers the pruned scheduler from several
// clients at once: the two-phase probe→gather dispatch holds one pipeline
// window slot across both phases, and under -race this is the test that
// would catch it cheating.
func TestPrunedDispatchConcurrent(t *testing.T) {
	const (
		k       = 5
		perNode = 80
		dim     = 3
		sigma   = 0.03
		seed    = 777
		queries = 15
		l       = 5
	)
	shards := distknn.AnchorGaussianShards(seed, perNode, dim, sigma)
	pruned, full := prunedTwins(t, distknn.VectorPoints(), k, seed, shards)

	qs := gaussianQueries(seed, queries, k, perNode, dim, sigma)
	want := make([][]distknn.Item, queries)
	for i, q := range qs {
		items, _, err := full.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = items
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				items, _, err := pruned.KNN(q, l)
				if err != nil {
					errs <- err
					return
				}
				for j := range want[i] {
					if items[j] != want[i][j] {
						t.Errorf("query %d item %d: pruned %+v != full %+v", i, j, items[j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// comparePrunedBatch is the batch-epoch twin of comparePruned: it sends the
// query stream through KNNBatch in chunks of `batch` to both frontends and
// requires bit-identical neighbors and boundaries on every query. It also
// audits the pruned stats convention for batches — Contacts is the total of
// per-point node contacts, so it must sit in [chunk, k·chunk] whenever the
// pruned path answered — and returns the total contacts across the stream
// (counting k per query for chunks that fell back to scatter).
func comparePrunedBatch[P any](t *testing.T, pruned, full *distknn.RemoteCluster[P], k int, queries []P, l, batch int) int64 {
	t.Helper()
	var contacts int64
	for at := 0; at < len(queries); at += batch {
		end := at + batch
		if end > len(queries) {
			end = len(queries)
		}
		chunk := queries[at:end]
		pres, pstats, err := pruned.KNNBatch(chunk, l)
		if err != nil {
			t.Fatalf("pruned batch at %d: %v", at, err)
		}
		fres, _, err := full.KNNBatch(chunk, l)
		if err != nil {
			t.Fatalf("full batch at %d: %v", at, err)
		}
		if len(pres) != len(chunk) || len(fres) != len(chunk) {
			t.Fatalf("batch at %d: %d pruned / %d full results for %d queries", at, len(pres), len(fres), len(chunk))
		}
		for i := range chunk {
			if pres[i].Boundary != fres[i].Boundary {
				t.Fatalf("batch query %d: pruned boundary %v != full %v", at+i, pres[i].Boundary, fres[i].Boundary)
			}
			if len(pres[i].Neighbors) != len(fres[i].Neighbors) {
				t.Fatalf("batch query %d: pruned %d items, full %d", at+i, len(pres[i].Neighbors), len(fres[i].Neighbors))
			}
			for j := range fres[i].Neighbors {
				if pres[i].Neighbors[j] != fres[i].Neighbors[j] {
					t.Fatalf("batch query %d item %d: pruned %+v != full %+v", at+i, j, pres[i].Neighbors[j], fres[i].Neighbors[j])
				}
			}
		}
		if pstats.Contacts > 0 {
			if pstats.Contacts < int64(len(chunk)) || pstats.Contacts > int64(k*len(chunk)) {
				t.Fatalf("batch at %d: %d contacts for %d queries on %d nodes", at, pstats.Contacts, len(chunk), k)
			}
			contacts += pstats.Contacts
		} else {
			contacts += int64(k * len(chunk))
		}
	}
	return contacts
}

// TestPrunedBatchScalarBitIdentical runs the KNNBatch metamorphic check on
// anchor-clustered scalar shards across ragged batch sizes, including
// batches that do not divide the stream.
func TestPrunedBatchScalarBitIdentical(t *testing.T) {
	const (
		k       = 4
		perNode = 120
		seed    = 1009
		queries = 61
		l       = 9
	)
	pruned, full := prunedTwins(t, distknn.ScalarPoints(), k, seed, distknn.AnchorShards(seed, perNode))
	qs := make([]distknn.Scalar, queries)
	for i := range qs {
		qs[i] = pruneScalarQuery(seed, i)
	}
	for _, batch := range []int{1, 2, 7, 16, queries} {
		comparePrunedBatch(t, pruned, full, k, qs, l, batch)
	}
}

// TestPrunedBatchVectorPrunes is the favorable-regime batch check: on
// well-separated Gaussian blobs the batched pruned path must stay
// bit-identical AND contact well under k nodes per query.
func TestPrunedBatchVectorPrunes(t *testing.T) {
	const (
		k       = 6
		perNode = 80
		dim     = 3
		sigma   = 0.02
		seed    = 31337
		queries = 48
		l       = 7
	)
	shards := distknn.AnchorGaussianShards(seed, perNode, dim, sigma)
	pruned, full := prunedTwins(t, distknn.VectorPoints(), k, seed, shards)
	qs := gaussianQueries(seed, queries, k, perNode, dim, sigma)
	for _, batch := range []int{3, 16} {
		requirePruning(t, fmt.Sprintf("batch=%d", batch), comparePrunedBatch(t, pruned, full, k, qs, l, batch), k, queries)
	}
}

// TestPrunedBatchBitVectorBitIdentical covers the batched medoid path:
// Hamming shards summarized around approximate medoids barely prune, but a
// batch's answers must not move.
func TestPrunedBatchBitVectorBitIdentical(t *testing.T) {
	const (
		k       = 3
		perNode = 100
		words   = 2
		seed    = 404
		queries = 30
		l       = 6
	)
	pruned, full := prunedTwins(t, distknn.BitVectorPoints(), k, seed, distknn.UniformBitVectorShards(seed, perNode, words))
	qs := make([]distknn.BitVector, queries)
	for i := range qs {
		qs[i] = bitVectorQueryAt(seed, words, i)
	}
	for _, batch := range []int{4, 13} {
		comparePrunedBatch(t, pruned, full, k, qs, l, batch)
	}
}

// TestPrunedBatchMaxBatchBoundary pushes one KNNBatch across the
// wire.MaxBatch chunking boundary: the client splits it into a full
// wire-limit chunk plus a ragged tail, and every answer must still match
// the full-scatter twin bit for bit.
func TestPrunedBatchMaxBatchBoundary(t *testing.T) {
	const (
		k       = 3
		perNode = 40
		seed    = 52
		l       = 3
	)
	pruned, full := prunedTwins(t, distknn.ScalarPoints(), k, seed, distknn.AnchorShards(seed, perNode))
	qs := make([]distknn.Scalar, wire.MaxBatch+5)
	for i := range qs {
		qs[i] = pruneScalarQuery(seed, i)
	}
	comparePrunedBatch(t, pruned, full, k, qs, l, len(qs))
}

// TestPrunedRegressBitIdentical pins the pruned Regress fold: the mean is a
// float64 summation whose rounding depends on evaluation order, so
// bit-equality (math.Float64bits, not ==) across pruned and full scatter
// proves the frontend replays the mesh's leader fold exactly — per-seat
// partials in ascending key order, folded in ascending seat order with 0.0
// for seats holding no winners. The Gaussian workload also checks that some
// of those pruned Regress queries really skipped nodes.
func TestPrunedRegressBitIdentical(t *testing.T) {
	const (
		k       = 6
		perNode = 80
		dim     = 3
		sigma   = 0.02
		seed    = 90210
		queries = 40
		l       = 7
	)
	shards := distknn.AnchorGaussianShards(seed, perNode, dim, sigma)
	pruned, full := prunedTwins(t, distknn.VectorPoints(), k, seed, shards)
	qs := gaussianQueries(seed, queries, k, perNode, dim, sigma)
	prunedCount := 0
	for i, q := range qs {
		pv, pstats, err := pruned.Regress(q, l)
		if err != nil {
			t.Fatalf("pruned regress %d: %v", i, err)
		}
		fv, _, err := full.Regress(q, l)
		if err != nil {
			t.Fatalf("full regress %d: %v", i, err)
		}
		if math.Float64bits(pv) != math.Float64bits(fv) {
			t.Fatalf("regress %d: pruned %x != full %x (%g vs %g)",
				i, math.Float64bits(pv), math.Float64bits(fv), pv, fv)
		}
		if pstats.Bytes == 0 && pstats.Messages < int64(k) {
			prunedCount++
		}
	}
	if prunedCount == 0 {
		t.Fatalf("no regress query of %d skipped a node on %d well-separated blobs", queries, k)
	}

	// The unfavorable scalar control: uniform data, wide balls, same bits.
	spruned, sfull := prunedTwins(t, distknn.ScalarPoints(), 4, seed+1, distknn.AnchorShards(seed+1, 100))
	for i := 0; i < 25; i++ {
		q := pruneScalarQuery(seed+1, 600+i)
		pv, _, err := spruned.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		fv, _, err := sfull.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pv) != math.Float64bits(fv) {
			t.Fatalf("scalar regress %d: pruned %x != full %x", i, math.Float64bits(pv), math.Float64bits(fv))
		}
	}
}

// TestPrunedServerBatchBitIdentical composes the two batching layers:
// a pruned frontend with server-side coalescing answers concurrently
// arriving single queries as pruned batch epochs (the coalesced bucket
// routes through the same two-wave path as a client batch), and every
// answer must match the plain full-scatter twin bit for bit.
func TestPrunedServerBatchBitIdentical(t *testing.T) {
	const (
		k       = 5
		perNode = 80
		dim     = 3
		sigma   = 0.03
		seed    = 1717
		queries = 24
		l       = 5
	)
	shards := distknn.AnchorGaussianShards(seed, perNode, dim, sigma)
	_, full := testutil.StartCluster(t, distknn.VectorPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{})
	_, pruned := testutil.StartCluster(t, distknn.VectorPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{
			Pruner:      distknn.VectorPoints().Pruner(),
			ServerBatch: true,
			Linger:      2 * time.Millisecond,
		})

	qs := gaussianQueries(seed, queries, k, perNode, dim, sigma)
	want := make([][]distknn.Item, queries)
	wantVal := make([]uint64, queries)
	for i, q := range qs {
		items, _, err := full.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = items
		v, _, err := full.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		wantVal[i] = math.Float64bits(v)
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				items, _, err := pruned.KNN(q, l)
				if err != nil {
					t.Errorf("coalesced pruned query %d: %v", i, err)
					return
				}
				for j := range want[i] {
					if items[j] != want[i][j] {
						t.Errorf("query %d item %d: coalesced pruned %+v != full %+v", i, j, items[j], want[i][j])
						return
					}
				}
				v, _, err := pruned.Regress(q, l)
				if err != nil {
					t.Errorf("coalesced pruned regress %d: %v", i, err)
					return
				}
				if math.Float64bits(v) != wantVal[i] {
					t.Errorf("regress %d: coalesced pruned %x != full %x", i, math.Float64bits(v), wantVal[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// scalarGeom mirrors, client-side, the exact geometry the pruned frontend
// computes: the deterministic k-center clustering of the global scalar
// stream, each shard's anchor and radius, and the two-phase contact set a
// query produces when every seat is present. The churn test uses it to pick
// its victims — a node a given query needs, and one it provably does not.
type scalarGeom struct {
	k       int
	centers []points.Scalar
	radii   []float64
	members [][]points.Scalar
}

func newScalarGeom(seed uint64, k, perNode int) *scalarGeom {
	pts, _ := globalScalarStream(seed, k, perNode)
	cl := metricindex.KCenter(pts, points.ScalarMetric, k, seed)
	g := &scalarGeom{k: k}
	keyDist := func(d uint64) float64 { return float64(d) }
	for id := 0; id < k; id++ {
		center := pts[cl.Anchors[id]]
		var members []points.Scalar
		for j, c := range cl.Assign {
			if c == id {
				members = append(members, pts[j])
			}
		}
		g.centers = append(g.centers, center)
		g.radii = append(g.radii, metricindex.Radius(members, center, points.ScalarMetric, keyDist))
		g.members = append(g.members, members)
	}
	return g
}

// contacts replays the frontend's pruned dispatch for q with all seats
// present: probe the nearest anchor, bound the ℓ-th neighbor by the probe's
// local top-ℓ, admit every other shard whose ball can intersect.
func (g *scalarGeom) contacts(q points.Scalar, l int) map[int]bool {
	dist := make([]float64, g.k)
	probe := 0
	for id := range dist {
		dist[id] = float64(points.ScalarMetric(q, g.centers[id]))
		if dist[id] < dist[probe] {
			probe = id
		}
	}
	ub := math.Inf(1)
	if members := g.members[probe]; len(members) >= l {
		ds := make([]float64, len(members))
		for i, m := range members {
			ds[i] = float64(points.ScalarMetric(q, m))
		}
		sort.Float64s(ds)
		ub = ds[l-1]
	}
	out := map[int]bool{probe: true}
	for id := 0; id < g.k; id++ {
		if id != probe && metricindex.Admit(dist[id], g.radii[id], ub) {
			out[id] = true
		}
	}
	return out
}

// TestPrunedChurn is the churn half of the metamorphic suite: kill one node
// a query would select AND one it would prune away, mid-stream. The query
// that needs neither keeps answering bit-identically — a dead-but-pruned
// node must not fail queries that never touch it — while the query that
// needs the dead node fails with the retryable degraded error. Once fresh
// processes re-seat both shards (re-deriving the same clustering, anchors
// and radii from the seed), the full stream resumes bit-identical.
func TestPrunedChurn(t *testing.T) {
	const (
		k       = 5
		perNode = 150
		seed    = 6061
		l       = 6
		stream  = 30
	)
	shards := distknn.AnchorShards(seed, perNode)
	g := newScalarGeom(seed, k, perNode)

	// Pick victims from the geometry: qFar's contact set leaves at least two
	// seats untouched — those become the victims V (selected by qNear, which
	// probes V's own anchor) and W (pruned by both queries).
	victimV, victimW := -1, -1
	var qFar distknn.Scalar
	for i := 0; i < 500 && victimV < 0; i++ {
		q := pruneScalarQuery(seed, 9000+i)
		c := g.contacts(q, l)
		if len(c) > k-2 {
			continue
		}
		for v := 0; v < k && victimV < 0; v++ {
			if c[v] {
				continue
			}
			for w := v + 1; w < k; w++ {
				if !c[w] {
					qFar, victimV, victimW = q, v, w
					break
				}
			}
		}
	}
	if victimV < 0 {
		t.Fatal("workload yields no query that prunes two shards — victims unfindable")
	}
	qNear := g.centers[victimV] // probes V by construction: distance 0 to V's anchor
	if c := g.contacts(qNear, l); !c[victimV] || c[victimW] {
		t.Fatalf("victim geometry inconsistent: qNear contacts %v, want %d in and %d out", c, victimV, victimW)
	}

	// Full-scatter twin supplies the reference stream.
	_, full := testutil.StartCluster(t, distknn.ScalarPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{})
	refAt := func(q distknn.Scalar) []distknn.Item {
		t.Helper()
		items, _, err := full.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		return items
	}

	// The churned cluster serves with pruned dispatch and a no-retry client,
	// so the degraded window is observable instead of ridden out.
	srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{Pruner: distknn.ScalarPoints().Pruner()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	check := func(q distknn.Scalar) {
		t.Helper()
		items, _, err := rc.KNN(q, l)
		if err != nil {
			t.Fatalf("pruned query: %v", err)
		}
		want := refAt(q)
		for j := range want {
			if items[j] != want[j] {
				t.Fatalf("item %d: pruned %+v != full %+v", j, items[j], want[j])
			}
		}
	}
	check(qFar)
	check(qNear)

	// Mid-stream churn: V (selected by qNear) and W (pruned by both) die.
	if err := srv.EvictNode(victimV); err != nil {
		t.Fatal(err)
	}
	if err := srv.EvictNode(victimW); err != nil {
		t.Fatal(err)
	}

	// qFar touches neither corpse: it must keep answering, bit-identically.
	check(qFar)
	// qNear probes the dead V: retryable degraded failure, nothing else.
	if _, _, err := rc.KNN(qNear, l); err == nil || !errors.Is(err, distknn.ErrClusterDegraded) {
		t.Fatalf("query needing a dead node: got %v, want a degraded error", err)
	}

	// Heal both seats: fresh processes re-derive the same clustering from the
	// seed, and the frontend's summary check admits them back.
	nodeDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			nodeDone <- distknn.ServeTypedNode(distknn.ScalarPoints(), srv.Addr(), "127.0.0.1:0", shards, distknn.NodeOptions{})
		}()
	}
	// The strict stream below can need either healer, so wait for both: a
	// query at a victim's own anchor probes that victim by construction.
	deadline := time.Now().Add(30 * time.Second)
	for _, q := range []distknn.Scalar{qNear, g.centers[victimW]} {
		for {
			if _, _, err := rc.KNN(q, l); err == nil {
				break
			} else if !errors.Is(err, distknn.ErrClusterDegraded) {
				t.Fatalf("waiting for recovery: non-degraded failure: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("cluster did not recover from churn")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	check(qNear)
	check(qFar)
	for i := 0; i < stream; i++ {
		check(pruneScalarQuery(seed, i))
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close after churn: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-nodeDone; err != nil {
			t.Fatalf("re-joined node exited with %v", err)
		}
	}
}

// TestPrunedBatchChurn is the batch half of the churn suite: a batch's
// contact set is the union of its points' contact sets, so a dead seat that
// no point of the batch probes or admits must not fail the batch — it keeps
// answering bit-identically — while a batch that includes even one point
// needing the dead seat fails whole with the retryable degraded error.
func TestPrunedBatchChurn(t *testing.T) {
	const (
		k       = 5
		perNode = 150
		seed    = 6061
		l       = 6
	)
	shards := distknn.AnchorShards(seed, perNode)
	g := newScalarGeom(seed, k, perNode)

	// Collect a batch of queries that all provably avoid some common seat W.
	victimW := -1
	var farBatch []distknn.Scalar
	for w := 0; w < k && victimW < 0; w++ {
		farBatch = farBatch[:0]
		for i := 0; i < 800 && len(farBatch) < 7; i++ {
			q := pruneScalarQuery(seed, 12000+i)
			if !g.contacts(q, l)[w] {
				farBatch = append(farBatch, q)
			}
		}
		if len(farBatch) == 7 {
			victimW = w
		}
	}
	if victimW < 0 {
		t.Fatal("workload yields no seat avoided by 7 queries — victim unfindable")
	}

	_, full := testutil.StartCluster(t, distknn.ScalarPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{})
	srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{Pruner: distknn.ScalarPoints().Pruner()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	checkBatch := func() {
		t.Helper()
		pres, _, err := rc.KNNBatch(farBatch, l)
		if err != nil {
			t.Fatalf("pruned batch: %v", err)
		}
		fres, _, err := full.KNNBatch(farBatch, l)
		if err != nil {
			t.Fatalf("full batch: %v", err)
		}
		for i := range farBatch {
			if pres[i].Boundary != fres[i].Boundary {
				t.Fatalf("batch query %d: pruned boundary %v != full %v", i, pres[i].Boundary, fres[i].Boundary)
			}
			for j := range fres[i].Neighbors {
				if pres[i].Neighbors[j] != fres[i].Neighbors[j] {
					t.Fatalf("batch query %d item %d: pruned %+v != full %+v", i, j, pres[i].Neighbors[j], fres[i].Neighbors[j])
				}
			}
		}
	}
	checkBatch()

	// Kill W. The far batch touches no dead seat and must keep answering.
	if err := srv.EvictNode(victimW); err != nil {
		t.Fatal(err)
	}
	checkBatch()

	// A batch that smuggles in W's own anchor point needs the corpse: its
	// admission ball reaches W (distance 0), so the whole batch degrades.
	needy := append(append([]distknn.Scalar{}, farBatch...), g.centers[victimW])
	if _, _, err := rc.KNNBatch(needy, l); err == nil || !errors.Is(err, distknn.ErrClusterDegraded) {
		t.Fatalf("batch needing a dead node: got %v, want a degraded error", err)
	}
}
