package distknn_test

// Integration tests across the whole stack: every algorithm × every elector
// × both runtimes (simulator and TCP) on the same instance must produce the
// same exact answer, and the algorithms' cost profiles must respect the
// paper's ordering at scale. These tests exercise the composition paths the
// per-package suites cannot.

import (
	"sync"
	"testing"

	"distknn"
	"distknn/internal/core"
	"distknn/internal/election"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/testutil"
	"distknn/internal/xrand"
)

// shardFor regenerates machine id's dataset from the shared seed, the
// deployment pattern of distknn.PaperShards and cmd/knnnode.
func shardFor(seed uint64, id, n int) *points.Set[points.Scalar] {
	rng := xrand.NewStream(seed, uint64(id))
	s := points.GenUniformScalars(rng, n, points.PaperDomain)
	for j := range s.IDs {
		s.IDs[j] = uint64(id)*uint64(n) + uint64(j) + 1
	}
	return s
}

func oracleBoundary(seed uint64, k, n int, q points.Scalar, l int) keys.Key {
	var parts []*points.Set[points.Scalar]
	for i := 0; i < k; i++ {
		parts = append(parts, shardFor(seed, i, n))
	}
	return points.Merge(parts).BruteKNN(q, l)[l-1].Key
}

// TestFullMatrixSimulator runs every algorithm × elector combination inside
// the simulator and checks exactness and machine agreement.
func TestFullMatrixSimulator(t *testing.T) {
	const (
		seed = uint64(2024)
		k    = 6
		n    = 300
		l    = 21
	)
	q := points.Scalar(1 << 30)
	want := oracleBoundary(seed, k, n, q, l)

	algos := map[string]func(m kmachine.Env, cfg core.Config, local []points.Item) (core.Result, error){
		"alg2":        core.KNN,
		"direct":      core.DirectKNN,
		"simple":      core.SimpleKNN,
		"saukas-song": core.SaukasSongKNN,
		"binsearch":   core.BinarySearchKNN,
	}
	electors := map[string]func(m kmachine.Env) (int, error){
		"minguid": election.MinGUID,
		"sublinear": func(m kmachine.Env) (int, error) {
			return election.Sublinear(m, election.SublinearOptions{})
		},
	}
	for aname, algo := range algos {
		for ename, elect := range electors {
			t.Run(aname+"/"+ename, func(t *testing.T) {
				var mu sync.Mutex
				bounds := make([]keys.Key, k)
				prog := func(m kmachine.Env) error {
					shard := shardFor(seed, m.ID(), n)
					leader, err := elect(m)
					if err != nil {
						return err
					}
					res, err := algo(m, core.Config{Leader: leader, L: l}, shard.TopLItems(q, l))
					if err != nil {
						return err
					}
					mu.Lock()
					bounds[m.ID()] = res.Boundary
					mu.Unlock()
					return nil
				}
				met, err := kmachine.Run(kmachine.Config{K: k, Seed: seed}, prog)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					if bounds[i] != want {
						t.Fatalf("machine %d boundary %v, want %v", i, bounds[i], want)
					}
				}
				if met.Dangling != 0 {
					t.Errorf("%d dangling messages", met.Dangling)
				}
			})
		}
	}
}

// TestFullMatrixTCP runs the socket side of the matrix: each algorithm
// serves the same instance from a resident loopback cluster (ServeTypedLocal
// with NodeOptions.Algorithm; PaperShards generates exactly shardFor's data)
// and must return the oracle's boundary and neighbors.
func TestFullMatrixTCP(t *testing.T) {
	const (
		seed = uint64(2025)
		k    = 4
		n    = 200
		l    = 9
	)
	q := points.Scalar(3 << 29)
	want := oracleBoundary(seed, k, n, q, l)

	algos := map[string]distknn.Algorithm{
		"alg2":   distknn.Alg2,
		"direct": distknn.Direct,
		"simple": distknn.Simple,
	}
	for aname, algo := range algos {
		t.Run(aname, func(t *testing.T) {
			_, rc := testutil.StartCluster(t, distknn.ScalarPoints(), k, seed,
				distknn.PaperShards(seed, n), distknn.NodeOptions{Algorithm: algo}, distknn.FrontendOptions{})
			items, stats, err := rc.KNN(q, l)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Boundary != want {
				t.Fatalf("boundary %v, want %v", stats.Boundary, want)
			}
			if len(items) != l || items[l-1].Key != want {
				t.Fatalf("neighbors %v, want %d ending at %v", items, l, want)
			}
		})
	}
}

// TestCostOrderingAtScale pins the paper's qualitative cost ordering: at a
// large ℓ under the bandwidth-limited model, Algorithm 2 must beat the
// simple method on rounds by at least 5×, and the simple method must beat
// everything on message count (it sends k−1 big messages).
func TestCostOrderingAtScale(t *testing.T) {
	const (
		seed = uint64(11)
		k    = 8
		n    = 1 << 13
		l    = 2048
	)
	q := points.Scalar(1 << 31)
	run := func(algo func(m kmachine.Env, cfg core.Config, local []points.Item) (core.Result, error)) *kmachine.Metrics {
		prog := func(m kmachine.Env) error {
			shard := shardFor(seed, m.ID(), n)
			_, err := algo(m, core.Config{Leader: 0, L: l}, shard.TopLItems(q, l))
			return err
		}
		met, err := kmachine.Run(kmachine.Config{K: k, Seed: seed}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	m2 := run(core.KNN)
	ms := run(core.SimpleKNN)
	if m2.Rounds*5 > ms.Rounds {
		t.Errorf("alg2 %d rounds vs simple %d rounds: expected ≥5x separation at l=%d",
			m2.Rounds, ms.Rounds, l)
	}
	if ms.Messages >= m2.Messages {
		t.Errorf("simple sent %d messages vs alg2 %d: simple should send fewer, bigger messages",
			ms.Messages, m2.Messages)
	}
	if ms.Bytes <= m2.Bytes {
		t.Errorf("simple moved %dB vs alg2 %dB: simple should move far more data", ms.Bytes, m2.Bytes)
	}
}

// TestFacadeAgainstInternalPipeline cross-checks the public API against a
// hand-assembled internal pipeline on the same data.
func TestFacadeAgainstInternalPipeline(t *testing.T) {
	rng := xrand.New(404)
	values := make([]uint64, 500)
	for i := range values {
		values[i] = rng.Uint64N(points.PaperDomain)
	}
	c, err := distknn.NewScalarCluster(values, nil, distknn.Options{Machines: 5, Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := distknn.Scalar(7777777)
	items, stats, err := c.KNN(q, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Internal oracle over the same values.
	set, _ := points.NewSet(toScalars(values), nil, points.ScalarMetric, 1)
	want := set.BruteKNN(q, 13)
	for i := range items {
		if items[i].Key != want[i].Key {
			t.Fatalf("rank %d: %v != %v", i, items[i].Key, want[i].Key)
		}
	}
	if stats.Boundary != want[12].Key {
		t.Errorf("boundary mismatch")
	}
}

func toScalars(values []uint64) []points.Scalar {
	out := make([]points.Scalar, len(values))
	for i, v := range values {
		out[i] = points.Scalar(v)
	}
	return out
}
