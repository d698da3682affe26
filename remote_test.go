package distknn_test

import (
	"strings"
	"sync"
	"testing"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/testutil"
	"distknn/internal/xrand"
)

// remoteShards builds the deterministic per-node workload used by the
// remote-serving tests: node id holds perNode uniform scalars drawn from
// stream id of the seed, labels cycling 0..3 by global index, and the ID
// block [id·perNode+1, (id+1)·perNode].
func remoteShards(seed uint64, perNode int) distknn.ShardProvider[distknn.Scalar] {
	return func(id, k int) (distknn.Shard[distknn.Scalar], error) {
		rng := xrand.NewStream(seed, uint64(id))
		values := make([]distknn.Scalar, perNode)
		labels := make([]float64, perNode)
		for j := range values {
			values[j] = distknn.Scalar(rng.Uint64N(points.PaperDomain))
			labels[j] = float64((id*perNode + j) % 4)
		}
		return distknn.Shard[distknn.Scalar]{
			Points:  values,
			Labels:  labels,
			FirstID: uint64(id)*uint64(perNode) + 1,
		}, nil
	}
}

// mergedData reassembles the global dataset exactly as the shards hold it
// (same order, hence same IDs after NewScalarCluster assigns 1..n).
func mergedData(t *testing.T, seed uint64, k, perNode int) ([]uint64, []float64) {
	t.Helper()
	pts, labels := testutil.Merged(t, remoteShards(seed, perNode), k)
	values := make([]uint64, len(pts))
	for i, p := range pts {
		values[i] = uint64(p)
	}
	return values, labels
}

func startRemote(t *testing.T, k int, seed uint64, perNode int, opts distknn.NodeOptions) (*distknn.LocalServer, *distknn.RemoteCluster[distknn.Scalar]) {
	t.Helper()
	return testutil.StartCluster(t, distknn.ScalarPoints(), k, seed, remoteShards(seed, perNode), opts, distknn.FrontendOptions{})
}

// TestRemoteClusterMatchesInProcess is the headline acceptance test: a
// resident TCP cluster answers a long stream of sequential queries over one
// mesh, and every answer is bit-identical to the in-process Cluster serving
// the same global dataset.
func TestRemoteClusterMatchesInProcess(t *testing.T) {
	const (
		k       = 4
		perNode = 250
		seed    = 42
		queries = 110
		l       = 15
	)
	_, rc := startRemote(t, k, seed, perNode, distknn.NodeOptions{})

	values, labels := mergedData(t, seed, k, perNode)
	local, err := distknn.NewScalarCluster(values, labels, distknn.Options{Machines: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	queryAt := func(i int) distknn.Scalar {
		return distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
	}
	for i := 0; i < queries; i++ {
		q := queryAt(i)
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

	// Classification and regression agree too (labels are small integers,
	// so the regression mean is exact in float64 and summation order
	// cannot matter).
	for i := 0; i < 20; i++ {
		q := queryAt(1000 + i)
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

// TestRemoteClusterDeterministicPerSeed re-serves the same seed and query
// stream on a fresh deployment and demands a bit-identical replay — results
// and per-query protocol costs.
func TestRemoteClusterDeterministicPerSeed(t *testing.T) {
	const (
		k       = 3
		perNode = 200
		seed    = 77
		queries = 25
		l       = 8
	)
	type obs struct {
		boundary distknn.Key
		rounds   int
		messages int64
		bytes    int64
	}
	run := func() []obs {
		_, rc := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
		out := make([]obs, queries)
		for i := range out {
			q := distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
			_, stats, err := rc.KNN(q, l)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = obs{stats.Boundary, stats.Rounds, stats.Messages, stats.Bytes}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: run 1 %+v != run 2 %+v", i, a[i], b[i])
		}
	}
}

func TestRemoteClusterConcurrentClients(t *testing.T) {
	const (
		k       = 3
		perNode = 150
		seed    = 5
		l       = 6
	)
	srv, _ := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc, err := distknn.DialTypedCluster(distknn.ScalarPoints(), srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer rc.Close()
			for i := 0; i < 10; i++ {
				q := distknn.Scalar(xrand.NewStream(seed, uint64(w)<<32+uint64(i)).Uint64N(points.PaperDomain))
				if _, _, err := rc.KNN(q, l); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRemoteClusterValidation(t *testing.T) {
	const perNode = 50
	_, rc := startRemote(t, 2, 11, perNode, distknn.NodeOptions{})
	if _, _, err := rc.KNN(distknn.Scalar(1), 0); err == nil {
		t.Error("l=0 should fail")
	}
	if _, _, err := rc.KNN(distknn.Scalar(1), 2*perNode+1); err == nil {
		t.Error("l beyond the global point count should fail")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, _, err := rc.KNN(distknn.Scalar(1), 2*perNode); err != nil {
		t.Errorf("l at the global point count should work: %v", err)
	}
}

// TestTCPServeSmoke is the CI smoke test for the socket serving path: tiny
// cluster, a handful of queries, alg2 against the simple baseline oracle.
func TestTCPServeSmoke(t *testing.T) {
	const (
		k       = 2
		perNode = 60
		seed    = 3
		l       = 5
	)
	_, rc := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	values, labels := mergedData(t, seed, k, perNode)
	set, err := points.NewSet(values, labels, func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		q := xrand.NewStream(seed, 900+uint64(i)).Uint64N(points.PaperDomain)
		got, _, err := rc.KNN(distknn.Scalar(q), l)
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
