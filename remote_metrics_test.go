package distknn_test

import (
	"testing"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/testutil"
)

// metricCase wires one served vector metric to its in-process counterpart.
type metricCase struct {
	name   string
	pt     distknn.PointType[distknn.Vector]
	metric distknn.Metric[distknn.Vector]
}

func vectorMetricCases() []metricCase {
	return []metricCase{
		{"l1", distknn.L1Points(), points.L1},
		{"linf", distknn.LInfPoints(), points.LInf},
		{"cosine", distknn.CosinePoints(), points.Cosine},
	}
}

// TestRemoteMetricsMatchInProcess serves each alternative vector metric over
// TCP and demands bit-identical answers to the in-process cluster built with
// the same points.Metric over the same global dataset — the L2 acceptance
// test, repeated for every metric the facade exposes.
func TestRemoteMetricsMatchInProcess(t *testing.T) {
	const (
		k       = 3
		perNode = 150
		dim     = 4
		seed    = 271
		queries = 40
		l       = 8
	)
	for _, mc := range vectorMetricCases() {
		t.Run(mc.name, func(t *testing.T) {
			shards := distknn.UniformVectorShards(seed, perNode, dim)
			_, rc := testutil.StartCluster(t, mc.pt, k, shards, distknn.NodeOptions{}, distknn.FrontendOptions{})

			vecs, labels := testutil.Merged(t, shards, k)
			local, err := distknn.NewCluster(vecs, labels, mc.metric, distknn.Options{Machines: k, Seed: seed})
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
			}

			for i := 0; i < 10; i++ {
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
			}
		})
	}
}

// TestRemoteMetricsPruned runs the L1 and L∞ metrics (both true metrics, so
// both carry pruners) through pruned dispatch against full scatter. Cosine
// violates the triangle inequality: its PointType must refuse to build a
// pruner, so a cosine cluster configured "with pruning" silently serves
// full scatter — exercised here to pin the refusal.
func TestRemoteMetricsPruned(t *testing.T) {
	const (
		k       = 3
		perNode = 100
		dim     = 3
		seed    = 828
		queries = 25
		l       = 6
	)
	if distknn.CosinePoints().Pruner() != nil {
		t.Fatal("cosine is not a metric; its PointType must not offer a pruner")
	}
	for _, mc := range vectorMetricCases() {
		t.Run(mc.name, func(t *testing.T) {
			shards := distknn.UniformVectorShards(seed, perNode, dim)
			pruned, full := prunedTwins(t, mc.pt, k, seed, shards)
			qs := make([]distknn.Vector, queries)
			for i := range qs {
				qs[i] = vectorQueryAt(seed, dim, i)
			}
			comparePruned(t, pruned, full, k, qs, l)
		})
	}
}

// TestRemoteMetricsDimMismatch: every metric's compatibility check fails a
// wrong-dimension query cleanly and leaves the session serving.
func TestRemoteMetricsDimMismatch(t *testing.T) {
	const (
		k       = 2
		perNode = 40
		dim     = 3
		seed    = 19
		l       = 3
	)
	for _, mc := range vectorMetricCases() {
		t.Run(mc.name, func(t *testing.T) {
			_, rc := testutil.StartCluster(t, mc.pt, k,
				distknn.UniformVectorShards(seed, perNode, dim), distknn.NodeOptions{}, distknn.FrontendOptions{})
			if _, _, err := rc.KNN(make(distknn.Vector, dim+2), l); err == nil {
				t.Fatal("mismatched dimension should fail")
			}
			if _, _, err := rc.KNN(vectorQueryAt(seed, dim, 1), l); err != nil {
				t.Fatalf("session should survive a failed query: %v", err)
			}
		})
	}
}
