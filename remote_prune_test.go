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
	"distknn/internal/transport/tcp"
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
	_, pruned = testutil.StartCluster(t, pt, k, shards, distknn.NodeOptions{},
		distknn.FrontendOptions{Pruner: pt.Pruner()})
	_, full = testutil.StartCluster(t, pt, k, shards, distknn.NodeOptions{}, distknn.FrontendOptions{})
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

// compareClassify does the same for the classification path, whose vote
// both plans fold at the frontend from the seats' winner shares.
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

// TestAnchoredShardsPartitionUniformData pins what the anchor-clustered
// providers promise: their k shards hold exactly the (ID, point, label)
// triples of the uniform block providers they re-partition — every triple
// once, none added — for scalars and vectors.
func TestAnchoredShardsPartitionUniformData(t *testing.T) {
	const seed, k, perNode, dim = 23, 4, 60, 3
	checkPartition(t, distknn.PaperShards(seed, perNode), distknn.AnchorShards(seed, perNode), k)
	checkPartition(t, distknn.UniformVectorShards(seed, perNode, dim), distknn.AnchorVectorShards(seed, perNode, dim), k)
}

func checkPartition[P any](t *testing.T, block, anchored distknn.ShardProvider[P], k int) {
	t.Helper()
	want := make(map[uint64]string)
	for id := 0; id < k; id++ {
		sh, err := block(id, k)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range sh.Points {
			want[sh.FirstID+uint64(j)] = fmt.Sprint(p, sh.Labels[j])
		}
	}
	total := len(want)
	for id := 0; id < k; id++ {
		sh, err := anchored(id, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(sh.IDs) != len(sh.Points) || len(sh.Labels) != len(sh.Points) {
			t.Fatalf("anchored shard %d: %d IDs, %d points, %d labels", id, len(sh.IDs), len(sh.Points), len(sh.Labels))
		}
		for j, p := range sh.Points {
			w, ok := want[sh.IDs[j]]
			if !ok {
				t.Fatalf("anchored shard %d holds ID %d twice or from outside the uniform data", id, sh.IDs[j])
			}
			if got := fmt.Sprint(p, sh.Labels[j]); got != w {
				t.Fatalf("anchored shard %d, ID %d: got %s, the uniform provider has %s", id, sh.IDs[j], got, w)
			}
			delete(want, sh.IDs[j])
		}
	}
	if len(want) != 0 {
		t.Fatalf("the anchored shards miss %d of %d uniform points", len(want), total)
	}
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

	// Regression rides the pruned path too, folding the same per-seat
	// shares as full scatter — TestPrunedRegressBitIdentical pins the bits; this is
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

// medoidTwins starts pruned and full-scatter sessions over uniform vector
// shards, which pin no centroid, so each node summarizes itself around an
// approximate medoid (metricindex.ApproxMedoid). It fails the test unless
// the pruned session really answers through pruned dispatch: one whose
// medoid summaries failed would serve full scatter and pass every
// comparison without touching the pruned path.
func medoidTwins(t *testing.T, k int, seed uint64, perNode, dim, queries, l int) (pruned, full *distknn.RemoteCluster[distknn.Vector], qs []distknn.Vector) {
	t.Helper()
	pruned, full = prunedTwins(t, distknn.VectorPoints(), k, seed, distknn.UniformVectorShards(seed, perNode, dim))
	qs = make([]distknn.Vector, queries)
	for i := range qs {
		qs[i] = vectorQueryAt(seed, dim, i)
	}
	if _, st, err := pruned.KNN(qs[0], l); err != nil {
		t.Fatal(err)
	} else if st.Contacts == 0 {
		t.Fatal("medoid-summarized session did not answer through pruned dispatch")
	}
	return pruned, full, qs
}

// TestPrunedUniformVectorBitIdentical covers the medoid path: balls over
// uniform data barely prune, but single queries and Classify must not move.
func TestPrunedUniformVectorBitIdentical(t *testing.T) {
	const (
		k       = 3
		perNode = 100
		dim     = 3
		seed    = 404
		queries = 40
		l       = 6
	)
	pruned, full, qs := medoidTwins(t, k, seed, perNode, dim, queries, l)
	comparePruned(t, pruned, full, k, qs, l)

	cqs := make([]distknn.Vector, 10)
	for i := range cqs {
		cqs[i] = vectorQueryAt(seed, dim, 5000+i)
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

// TestPrunedBatchUniformVectorBitIdentical covers the batched medoid path:
// shards summarized around approximate medoids barely prune, but a ragged
// batch's answers must not move.
func TestPrunedBatchUniformVectorBitIdentical(t *testing.T) {
	const (
		k       = 3
		perNode = 100
		dim     = 3
		seed    = 404
		queries = 30
		l       = 6
	)
	pruned, full, qs := medoidTwins(t, k, seed, perNode, dim, queries, l)
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
// proves both plans fold the same per-seat shares — partials in ascending
// key order, added in ascending seat order with 0.0 for seats holding no
// winners. The Gaussian workload also checks that some
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
	_, full := testutil.StartCluster(t, distknn.VectorPoints(), k, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{})
	// A window of 2 under 6 concurrent callers keeps it full, so arrivals
	// coalesce; checkCoalesced proves they did.
	reg := distknn.NewMetrics()
	_, pruned := testutil.StartCluster(t, distknn.VectorPoints(), k, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{
			Pruner:      distknn.VectorPoints().Pruner(),
			Window:      2,
			ServerBatch: true,
			Metrics:     reg,
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
	checkCoalesced(t, reg)
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
	_, full := testutil.StartCluster(t, distknn.ScalarPoints(), k, shards,
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
	rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{RetryWait: -1})
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

	_, full := testutil.StartCluster(t, distknn.ScalarPoints(), k, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{})
	srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{Pruner: distknn.ScalarPoints().Pruner()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{RetryWait: -1})
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

// TestPrunedBoundedWaveBitIdentical pins the bounded gather wave end to end.
// Each wave-2 shard returns only its keys below the point's probe bound, and
// still every pruned answer — KNN, Classify and Regress, single points and
// batches — must be bit-identical to full scatter and to a brute-force
// oracle over the union of the shards. The oracle sums Regress's mean the way
// the cluster defines it: each seat's share summed in key order, then the
// seats' sums in ascending seat order. The labels mix magnitudes, so that
// order shows in the bits. The last seat is cut down to fewer than ℓ points, so a point whose
// probe lands there has no bound: it scatters to every seat unbounded,
// inside the same batches as bounded points. On the Gaussian blobs a bounded
// point's gather wave must ship fewer than ℓ items per contact.
func TestPrunedBoundedWaveBitIdentical(t *testing.T) {
	const (
		k       = 4
		perNode = 120
		dim     = 3
		sigma   = 0.15
		seed    = 4242
		queries = 24
		batch   = 6
		l       = 16
		small   = 5 // points left on the last seat, fewer than ℓ
	)
	classes := []float64{0.1, 1e15 + 0.3, -1e15, 0.7}
	gauss := distknn.AnchorGaussianShards(seed, perNode, dim, sigma)
	shards := func(id, k int) (distknn.Shard[distknn.Vector], error) {
		sh, err := gauss(id, k)
		if err != nil {
			return sh, err
		}
		if id == k-1 {
			sh.Points, sh.Labels, sh.IDs = sh.Points[:small], sh.Labels[:small], sh.IDs[:small]
		}
		for j, c := range sh.Labels {
			sh.Labels[j] = classes[int(c)%len(classes)]
		}
		return sh, nil
	}
	pt := distknn.VectorPoints()
	reg := distknn.NewMetrics()
	srv, pruned := testutil.StartCluster(t, pt, k, shards, distknn.NodeOptions{},
		distknn.FrontendOptions{Pruner: pt.Pruner(), Metrics: reg})
	_, full := testutil.StartCluster(t, pt, k, shards, distknn.NodeOptions{}, distknn.FrontendOptions{})

	// The oracle's view: every point with its global ID, label and seat, and
	// each seat's anchor, which decides the seat a point probes.
	type seatPoint struct {
		p     distknn.Vector
		id    uint64
		label float64
		seat  int
	}
	var all []seatPoint
	centers := make([]distknn.Vector, k)
	for seat := 0; seat < k; seat++ {
		sh, err := shards(seat, k)
		if err != nil {
			t.Fatal(err)
		}
		centers[seat] = *sh.Center
		for j, p := range sh.Points {
			all = append(all, seatPoint{p: p, id: sh.IDs[j], label: sh.Labels[j], seat: seat})
		}
	}
	oracle := func(q distknn.Vector) []seatPoint {
		key := func(sp seatPoint) distknn.Key { return distknn.Key{Dist: points.L2(sp.p, q), ID: sp.id} }
		sort.Slice(all, func(a, b int) bool { return key(all[a]).Less(key(all[b])) })
		top := make([]seatPoint, l)
		copy(top, all)
		return top
	}
	wantItems := func(q distknn.Vector) []distknn.Item {
		var items []distknn.Item
		for _, sp := range oracle(q) {
			items = append(items, distknn.Item{Key: distknn.Key{Dist: points.L2(sp.p, q), ID: sp.id}, Label: sp.label})
		}
		return items
	}
	wantLabel := func(q distknn.Vector) float64 {
		count := make(map[float64]int)
		for _, sp := range oracle(q) {
			count[sp.label]++
		}
		label, best := math.Inf(1), 0
		for lb, c := range count {
			if c > best || (c == best && lb < label) {
				label, best = lb, c
			}
		}
		return label
	}
	wantMean := func(q distknn.Vector) float64 {
		sums := make([]float64, k)
		for _, sp := range oracle(q) {
			sums[sp.seat] += sp.label
		}
		mean := sums[0]
		for _, sum := range sums[1:] {
			mean += sum
		}
		return mean / l
	}
	sameItems := func(what string, got, want []distknn.Item) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d items, want %d", what, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s item %d: %+v, want %+v", what, j, got[j], want[j])
			}
		}
	}
	sameBits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (%x), want %v (%x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	qs := gaussianQueries(seed, queries, k, perNode, dim, sigma)
	contactsTotal := reg.Counter("frontend_prune_contacts_total")
	gatheredTotal := reg.Counter("frontend_prune_gather_items_total")
	var gatherContacts, gathered int64
	unbounded := 0
	for i, q := range qs {
		probe := 0
		for seat := range centers {
			if points.L2(q, centers[seat]) < points.L2(q, centers[probe]) {
				probe = seat
			}
		}
		what := fmt.Sprintf("query %d", i)
		contacts0, gathered0 := contactsTotal.Load(), gatheredTotal.Load()
		items, st, err := pruned.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		if probe != k-1 {
			// A bounded point: its probe was one contact, the rest
			// gather-wave contacts. The bound is the probe seat's ℓ-th key,
			// and every seat holding a key below it is admitted, so the
			// gather wave ships exactly min(ℓ, #keys below the bound) from
			// each other seat.
			var probeKeys []distknn.Key
			for _, sp := range all {
				if sp.seat == probe {
					probeKeys = append(probeKeys, distknn.Key{Dist: points.L2(sp.p, q), ID: sp.id})
				}
			}
			sort.Slice(probeKeys, func(a, b int) bool { return probeKeys[a].Less(probeKeys[b]) })
			bound := probeKeys[l-1]
			below := make([]int64, k)
			for _, sp := range all {
				if key := (distknn.Key{Dist: points.L2(sp.p, q), ID: sp.id}); sp.seat != probe && key.Less(bound) {
					below[sp.seat]++
				}
			}
			var want int64
			for _, n := range below {
				want += min(n, l)
			}
			got := gatheredTotal.Load() - gathered0
			if got != want {
				t.Fatalf("%s: the gather wave shipped %d items, want the %d keys below the bound %v", what, got, want, bound)
			}
			gatherContacts += contactsTotal.Load() - contacts0 - 1
			gathered += got
		}
		if st.Contacts == 0 {
			t.Fatalf("%s was not answered by the pruned plan", what)
		}
		if probe == k-1 {
			// No bound: every seat is contacted.
			unbounded++
			if st.Contacts != k {
				t.Fatalf("%s probes the short seat but contacted %d of %d seats", what, st.Contacts, k)
			}
		}
		fitems, _, err := full.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		sameItems(what+" pruned", items, wantItems(q))
		sameItems(what+" full", fitems, wantItems(q))

		label, _, err := pruned.Classify(q, l)
		if err != nil {
			t.Fatal(err)
		}
		flabel, _, err := full.Classify(q, l)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(what+" pruned classify", label, wantLabel(q))
		sameBits(what+" full classify", flabel, wantLabel(q))

		mean, _, err := pruned.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		fmean, _, err := full.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(what+" pruned regress", mean, wantMean(q))
		sameBits(what+" full regress", fmean, wantMean(q))
	}
	if unbounded == 0 {
		t.Fatal("no query probed the short seat: the unbounded case went untested")
	}
	if gatherContacts == 0 {
		t.Fatal("no bounded query reached a gather wave")
	}
	if perContact := float64(gathered) / float64(gatherContacts); perContact >= l {
		t.Fatalf("the gather wave shipped %.2f items per contact, want fewer than ℓ = %d", perContact, l)
	} else {
		t.Logf("bounded gather wave: %d contacts, %.2f items per contact at ℓ = %d", gatherContacts, perContact, l)
	}

	// Batches: KNN through KNNBatch, the label folds through whole
	// multi-point queries on the wire. Every batch mixes blobs, the short
	// seat's included.
	client, err := tcp.DialFrontendOptions(srv.Addr(), tcp.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for at := 0; at < queries; at += batch {
		chunk := qs[at : at+batch]
		res, _, err := pruned.KNNBatch(chunk, l)
		if err != nil {
			t.Fatal(err)
		}
		wq := wire.Query{L: l, Tag: wire.PointVector}
		for i, q := range chunk {
			sameItems(fmt.Sprintf("batch query %d", at+i), res[i].Neighbors, wantItems(q))
			wq.Points = append(wq.Points, wire.EncodeVectorPoint(q))
		}
		wq.Op = wire.OpClassify
		crep, err := client.Do(wq)
		if err != nil {
			t.Fatal(err)
		}
		wq.Op = wire.OpRegress
		rrep, err := client.Do(wq)
		if err != nil {
			t.Fatal(err)
		}
		if crep.Messages == 0 || rrep.Messages == 0 {
			t.Fatalf("batch at %d was not answered by the pruned plan", at)
		}
		for i, q := range chunk {
			sameBits(fmt.Sprintf("batch classify %d", at+i), crep.Results[i].Value, wantLabel(q))
			sameBits(fmt.Sprintf("batch regress %d", at+i), rrep.Results[i].Value, wantMean(q))
		}
	}
}
