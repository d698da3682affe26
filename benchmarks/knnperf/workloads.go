package main

import (
	"fmt"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// nodes is k: every workload serves from four resident nodes and a frontend.
const nodes = 4

// op is one client call of the query surface.
type op uint8

const (
	opKNN op = iota
	opClassify
	opRegress
)

func (o op) String() string { return [...]string{"knn", "classify", "regress"}[o] }

// spec is one workload: the data a cluster serves, how its frontend is
// configured, and the closed loop of callers that drives it. Query i is a
// pure function of (seed, i), so two runs of one seed issue the same stream.
type spec[P any] struct {
	name     string
	pt       distknn.PointType[P]
	metric   distknn.Metric[P] // the served type's distance, for the oracle
	shards   distknn.ShardProvider[P]
	frontend distknn.FrontendOptions
	conns    int  // client connections
	inflight int  // callers per connection, each waiting for its reply
	async    bool // callers hold their query as a KNNAsync handle
	l        int
	ops      []op // call i is ops[i mod len(ops)]
	query    func(i uint64) P
	// sim builds the in-process simulator over the same points, for the
	// no-sockets reading of the same query stream.
	sim func(pts []P, labels []float64, seed uint64) (*distknn.Cluster[P], error)
}

// sizes scales the datasets. The test size keeps `go test` within seconds;
// every reported number comes from the full size.
type sizes struct {
	vectorsPerNode int
	scalarsPerNode int
}

var (
	fullSize = sizes{vectorsPerNode: 65536, scalarsPerNode: 1 << 20}
	testSize = sizes{vectorsPerNode: 2048, scalarsPerNode: 1 << 13}
)

const (
	dim   = 3
	sigma = 0.1 // blob width of pruned_mixed
	// blobSeed fixes where pruned_mixed's four blobs lie, whatever the run's
	// seed. How far the blobs overlap decides how many nodes a query must
	// contact — 1.5 to 2.3 of four over seeds 1 to 10 — and that would
	// otherwise be the largest difference between two seeds. This layout
	// contacts 2.0, a mix of one, two and three.
	blobSeed = 1
)

// workloadNames lists the workloads in the order a full report runs them.
var workloadNames = []string{"mesh_rounds", "mesh_scan", "coalesced_mux", "pruned_mixed"}

// queryStream is the stream offset of a workload's queries, clear of the
// per-node data streams 0..k-1 of the same seed.
const queryStream = 1 << 40

func uniformQuery(seed uint64) func(uint64) distknn.Vector {
	return func(i uint64) distknn.Vector {
		rng := xrand.NewStream(seed, queryStream+i)
		q := make(distknn.Vector, dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		return q
	}
}

func vectorSim(pts []distknn.Vector, labels []float64, seed uint64) (*distknn.Cluster[distknn.Vector], error) {
	return distknn.NewVectorCluster(pts, labels, distknn.Options{Machines: nodes, Seed: seed})
}

// newRunner builds the named workload for a seed.
func newRunner(name string, seed uint64, sz sizes) (runner, error) {
	switch name {
	case "mesh_rounds":
		// One Algorithm-2 mesh epoch per query: the budget is rounds x
		// wake-up cost, the k-d tree is a small share.
		return &bench[distknn.Vector]{spec: spec[distknn.Vector]{
			name:     name,
			pt:       distknn.VectorPoints(),
			metric:   points.L2,
			shards:   distknn.UniformVectorShards(seed, sz.vectorsPerNode, dim),
			conns:    2,
			inflight: 1,
			l:        64,
			ops:      []op{opKNN},
			query:    uniformQuery(seed),
			sim:      vectorSim,
		}}, nil
	case "mesh_scan":
		// The paper's workload. Scalars have no index, so every node scans
		// its whole shard per query: local top-l is the work, the protocol
		// is noise.
		return &bench[distknn.Scalar]{spec: spec[distknn.Scalar]{
			name:     name,
			pt:       distknn.ScalarPoints(),
			metric:   points.ScalarMetric,
			shards:   distknn.PaperShards(seed, sz.scalarsPerNode),
			conns:    2,
			inflight: 1,
			l:        256,
			ops:      []op{opKNN},
			query: func(i uint64) distknn.Scalar {
				return distknn.Scalar(xrand.NewStream(seed, queryStream+i).Uint64N(points.PaperDomain))
			},
			sim: func(pts []distknn.Scalar, labels []float64, seed uint64) (*distknn.Cluster[distknn.Scalar], error) {
				return distknn.NewCluster(pts, labels, points.ScalarMetric, distknn.Options{Machines: nodes, Seed: seed})
			},
		}}, nil
	case "coalesced_mux":
		// The data and l of mesh_rounds behind a batching frontend and one
		// multiplexed connection: rounds amortised over lockstep batch
		// epochs, client demux and the scheduler window kept busy.
		return &bench[distknn.Vector]{spec: spec[distknn.Vector]{
			name:     name,
			pt:       distknn.VectorPoints(),
			metric:   points.L2,
			shards:   distknn.UniformVectorShards(seed, sz.vectorsPerNode, dim),
			frontend: distknn.FrontendOptions{ServerBatch: true},
			conns:    1,
			inflight: 16,
			async:    true,
			l:        64,
			ops:      []op{opKNN},
			query:    uniformQuery(seed),
			sim:      vectorSim,
		}}, nil
	case "pruned_mixed":
		// No mesh at all: two-wave direct dispatch, metric-index admission,
		// a frontend-side gather of c*l items, and the frontend's Classify
		// and Regress folds beside plain KNN.
		_, centers := points.GenGaussianClusters(xrand.NewStream(blobSeed, 0), nodes*sz.vectorsPerNode, dim, nodes, sigma)
		return &bench[distknn.Vector]{spec: spec[distknn.Vector]{
			name:     name,
			pt:       distknn.VectorPoints(),
			metric:   points.L2,
			shards:   distknn.AnchorGaussianShards(blobSeed, sz.vectorsPerNode, dim, sigma),
			frontend: distknn.FrontendOptions{Pruner: distknn.VectorPoints().Pruner()},
			conns:    2,
			inflight: 2,
			l:        512,
			ops:      []op{opKNN, opKNN, opClassify, opRegress},
			query: func(i uint64) distknn.Vector {
				rng := xrand.NewStream(seed, queryStream+i)
				c := centers[i%nodes]
				q := make(distknn.Vector, dim)
				for j := range q {
					q[j] = c[j] + rng.NormFloat64()*sigma
				}
				return q
			},
			sim: vectorSim,
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
