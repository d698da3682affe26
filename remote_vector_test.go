package distknn_test

import (
	"strings"
	"testing"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/testutil"
	"distknn/internal/xrand"
)

// mergedVectorData reassembles the global vector dataset exactly as the
// UniformVectorShards hold it (same order, hence same IDs after
// NewVectorCluster assigns 1..n).
func mergedVectorData(t *testing.T, seed uint64, k, perNode, dim int) ([]distknn.Vector, []float64) {
	t.Helper()
	return testutil.Merged(t, distknn.UniformVectorShards(seed, perNode, dim), k)
}

func vectorQueryAt(seed uint64, dim, i int) distknn.Vector {
	rng := xrand.NewStream(seed, 1<<40+uint64(i))
	v := make(distknn.Vector, dim)
	for j := range v {
		v[j] = rng.Float64()
	}
	return v
}

func startVectorRemote(t *testing.T, k int, seed uint64, perNode, dim int) (*distknn.LocalServer, *distknn.RemoteCluster[distknn.Vector]) {
	t.Helper()
	return testutil.StartCluster(t, distknn.VectorPoints(), k,
		distknn.UniformVectorShards(seed, perNode, dim), distknn.NodeOptions{}, distknn.FrontendOptions{})
}

// TestRemoteVectorMatchesInProcess is the vector acceptance test: a
// resident TCP cluster of k-d-tree-indexed vector shards answers a long
// stream of queries over one mesh, and every answer is bit-identical to
// the in-process NewVectorCluster serving the same global dataset.
func TestRemoteVectorMatchesInProcess(t *testing.T) {
	const (
		k       = 4
		perNode = 250
		dim     = 4
		seed    = 42
		queries = 110
		l       = 12
	)
	_, rc := startVectorRemote(t, k, seed, perNode, dim)

	vecs, labels := mergedVectorData(t, seed, k, perNode, dim)
	local, err := distknn.NewVectorCluster(vecs, labels, distknn.Options{Machines: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	for i := 0; i < queries; i++ {
		q := vectorQueryAt(seed, dim, i)
		remote, rstats, err := rc.KNN(q, l)
		if err != nil {
			t.Fatalf("remote query %d: %v", i, err)
		}
		want, lstats, err := local.KNN(q, l)
		if err != nil {
			t.Fatalf("local query %d: %v", i, err)
		}
		if len(remote) != len(want) {
			t.Fatalf("query %d: %d neighbors remote, %d local", i, len(remote), len(want))
		}
		for j := range want {
			if remote[j] != want[j] {
				t.Fatalf("query %d neighbor %d: remote %+v != local %+v", i, j, remote[j], want[j])
			}
		}
		if rstats.Boundary != lstats.Boundary {
			t.Fatalf("query %d: boundary remote %v != local %v", i, rstats.Boundary, lstats.Boundary)
		}
		if rstats.Rounds <= 0 || rstats.Messages <= 0 {
			t.Fatalf("query %d: implausible remote stats %+v", i, rstats)
		}
	}

	// Classification and regression agree too.
	for i := 0; i < 15; i++ {
		q := vectorQueryAt(seed, dim, 1000+i)
		rl, _, err := rc.Classify(q, l)
		if err != nil {
			t.Fatal(err)
		}
		ll, _, err := local.Classify(q, l)
		if err != nil {
			t.Fatal(err)
		}
		if rl != ll {
			t.Fatalf("classify %d: remote %g != local %g", i, rl, ll)
		}
		rm, _, err := rc.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		lm, _, err := local.Regress(q, l)
		if err != nil {
			t.Fatal(err)
		}
		if rm != lm {
			t.Fatalf("regress %d: remote %g != local %g", i, rm, lm)
		}
	}
}

// TestRemoteBatchMatchesPerQuery pins the lockstep batch path to the solo
// path: KNNBatch over TCP must return bit-identical neighbors and
// boundaries to per-query KNN calls on the same cluster, and to the
// in-process KNNBatch over the same global dataset — at every batch size,
// including ones that straddle chunk boundaries.
func TestRemoteBatchMatchesPerQuery(t *testing.T) {
	const (
		k       = 3
		perNode = 200
		seed    = 9
		queries = 45
		l       = 7
	)
	_, rc := startRemote(t, k, seed, perNode, distknn.NodeOptions{})

	qs := make([]distknn.Scalar, queries)
	for i := range qs {
		qs[i] = distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
	}
	// Per-query ground truth over the same serving session.
	want := make([]distknn.BatchResult, queries)
	for i, q := range qs {
		items, stats, err := rc.KNN(q, l)
		if err != nil {
			t.Fatalf("per-query %d: %v", i, err)
		}
		want[i] = distknn.BatchResult{Neighbors: items, Boundary: stats.Boundary}
	}

	check := func(name string, offset int, got []distknn.BatchResult) {
		t.Helper()
		for gi := range got {
			i := offset + gi
			if got[gi].Boundary != want[i].Boundary {
				t.Fatalf("%s query %d: boundary %v != %v", name, i, got[gi].Boundary, want[i].Boundary)
			}
			if len(got[gi].Neighbors) != len(want[i].Neighbors) {
				t.Fatalf("%s query %d: %d neighbors, want %d", name, i, len(got[gi].Neighbors), len(want[i].Neighbors))
			}
			for j := range want[i].Neighbors {
				if got[gi].Neighbors[j] != want[i].Neighbors[j] {
					t.Fatalf("%s query %d neighbor %d: %+v != %+v", name, i, j,
						got[gi].Neighbors[j], want[i].Neighbors[j])
				}
			}
		}
	}

	// One dispatch for the whole stream, and a size that forces several
	// dispatches with a ragged tail.
	got, stats, err := rc.KNNBatch(qs, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != queries {
		t.Fatalf("batch-all: %d results, want %d", len(got), queries)
	}
	check("batch-all", 0, got)
	if stats.Rounds <= 0 || stats.Messages <= 0 {
		t.Fatalf("implausible batch stats %+v", stats)
	}
	for i := 0; i < queries; i += 16 {
		end := i + 16
		if end > queries {
			end = queries
		}
		part, _, err := rc.KNNBatch(qs[i:end], l)
		if err != nil {
			t.Fatal(err)
		}
		check("batch-16", i, part)
	}

	// And the in-process KNNBatch over the merged dataset agrees.
	values, labels := mergedData(t, seed, k, perNode)
	local, err := distknn.NewScalarCluster(values, labels, distknn.Options{Machines: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	inproc, _, err := local.KNNBatch(qs, l)
	if err != nil {
		t.Fatal(err)
	}
	check("in-process", 0, inproc)
}

// TestRemoteVectorBatch runs the batch parity check on the vector path,
// where the lockstep epoch multiplexes k-d-tree-backed sub-programs.
func TestRemoteVectorBatch(t *testing.T) {
	const (
		k       = 3
		perNode = 150
		dim     = 3
		seed    = 13
		queries = 30
		l       = 5
	)
	_, rc := startVectorRemote(t, k, seed, perNode, dim)
	qs := make([]distknn.Vector, queries)
	for i := range qs {
		qs[i] = vectorQueryAt(seed, dim, i)
	}
	got, _, err := rc.KNNBatch(qs, l)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		items, stats, err := rc.KNN(q, l)
		if err != nil {
			t.Fatalf("per-query %d: %v", i, err)
		}
		if got[i].Boundary != stats.Boundary {
			t.Fatalf("query %d: batch boundary %v != solo %v", i, got[i].Boundary, stats.Boundary)
		}
		for j := range items {
			if got[i].Neighbors[j] != items[j] {
				t.Fatalf("query %d neighbor %d: batch %+v != solo %+v", i, j, got[i].Neighbors[j], items[j])
			}
		}
	}
}

// TestRemoteVectorDimMismatch: a query of the wrong dimension fails that
// query cleanly and leaves the session serving.
func TestRemoteVectorDimMismatch(t *testing.T) {
	const (
		k       = 2
		perNode = 60
		dim     = 4
		seed    = 5
		l       = 3
	)
	_, rc := startVectorRemote(t, k, seed, perNode, dim)
	if _, _, err := rc.KNN(make(distknn.Vector, dim+1), l); err == nil {
		t.Fatal("mismatched dimension should fail")
	} else if !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, _, err := rc.KNN(vectorQueryAt(seed, dim, 1), l); err != nil {
		t.Fatalf("session should survive a failed query: %v", err)
	}
}

// TestVectorTCPSmoke is the CI short-mode smoke test for the vector
// serving path: tiny cluster, a handful of queries, checked against the
// brute-force oracle over the merged dataset.
func TestVectorTCPSmoke(t *testing.T) {
	const (
		k       = 2
		perNode = 50
		dim     = 3
		seed    = 21
		l       = 4
	)
	_, rc := startVectorRemote(t, k, seed, perNode, dim)
	vecs, labels := mergedVectorData(t, seed, k, perNode, dim)
	set, err := points.NewSet(vecs, labels, points.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		q := vectorQueryAt(seed, dim, 900+i)
		got, _, err := rc.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		want := set.BruteKNN(q, l)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Key != want[j].Key {
				t.Fatalf("query %d neighbor %d: %v != %v", i, j, got[j].Key, want[j].Key)
			}
		}
	}
}
