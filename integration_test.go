package distknn_test

// Integration tests across the whole stack: every algorithm, around the
// seed's min-GUID leader, must produce the same exact answer on one
// instance, and the algorithms' cost profiles must respect the paper's
// ordering at scale. These tests exercise the composition paths the
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

// TestFullMatrixSimulator runs every algorithm inside the simulator around
// the seed's min-GUID leader (election.Leader), and checks exactness and
// machine agreement.
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
	leader := election.Leader(seed, k)
	for aname, algo := range algos {
		t.Run(aname+"/minguid", func(t *testing.T) {
			var mu sync.Mutex
			bounds := make([]keys.Key, k)
			prog := func(m kmachine.Env) error {
				shard := shardFor(seed, m.ID(), n)
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
