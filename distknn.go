// Package distknn is a Go implementation of "Efficient Distributed
// Algorithms for the K-Nearest Neighbors Problem" (Fathi, Molla,
// Pandurangan; SPAA 2020): exact ℓ-nearest-neighbor queries over data
// distributed across k machines, in O(log ℓ) communication rounds and
// O(k·log ℓ) messages regardless of the number of machines or points.
//
// The package is a facade: it partitions a labeled dataset across a
// simulated k-machine cluster (goroutine-per-machine, synchronous rounds,
// bandwidth-limited links — see internal/kmachine) and answers queries with
// the paper's Algorithm 2 or any of the baseline algorithms. Results are
// exact: Algorithm 2 runs Las Vegas, verifying its random pruning step and
// falling back to un-pruned selection in the ≤ 2/ℓ² of runs where it
// over-prunes.
//
// # Serving model
//
// A Cluster is built to serve a stream of queries rather than a single one.
// Construction partitions the dataset once. The leader is the min-GUID
// machine, and every machine's GUID derives from the seed, so it is computed
// rather than elected over messages: no query pays an election round, and
// each costs only the paper's O(log ℓ) query protocol, executed as one
// fresh simulator run (kmachine.Run) whose k machine goroutines have halted
// by the time the query returns. Between queries a Cluster holds no
// goroutines; Close marks it closed.
//
// # Concurrency
//
// A Cluster is safe for concurrent use: any number of goroutines may call
// KNN, Classify, Regress, KNNBatch, SelectRank and Median simultaneously.
// Each in-flight query is its own simulator run (own link timelines, own
// metrics), so concurrent queries neither contend on the model's bandwidth
// nor perturb each other's QueryStats, and every query's result is exact
// regardless of interleaving.
// The shards are immutable after construction and per-query randomness is
// derived from an atomic counter. Seed assignment follows arrival order, so
// per-query cost metrics are deterministic only under serial issue; see
// Options.Seed.
//
// # Serving over TCP
//
// The same serving model runs over real sockets, generic over the point
// type: a Frontend plus k resident nodes (ServeTypedNode with a PointType
// — scalar shards and k-d-tree-indexed vector shards ship — or
// ServeTypedLocalOptions for a single-process loopback deployment). The
// frontend takes the leader's seat of the paper's SimpleKNN: it sends each
// query batch to the nodes, each returns its shard's local top-ℓ, and the
// frontend selects, so KNNBatch over TCP amortizes frames and syscalls
// across the batch. The paper's own protocols run in-process, where their
// round and message costs are measured. The frontend's epoch scheduler
// pipelines up to FrontendOptions.Window queries from concurrent clients
// at once and can coalesce concurrently arriving single queries into batch
// queries (FrontendOptions.ServerBatch) — answers stay bit-identical to
// serialized execution. A RemoteCluster is the client handle: the same
// KNN/Classify/Regress/KNNBatch surface, the same exact results. See remote.go,
// docs/ARCHITECTURE.md and docs/PROTOCOL.md.
//
// Quickstart:
//
//	cluster, err := distknn.NewScalarCluster(values, labels, distknn.Options{Machines: 8})
//	defer cluster.Close()
//	neighbors, stats, err := cluster.KNN(query, 10)
//	label, _, err := cluster.Classify(query, 10)
//
// For the experiment harness reproducing the paper's evaluation, see
// cmd/knnbench; for running over real TCP sockets, see cmd/knnnode,
// RemoteCluster, and internal/transport/tcp; for the serving benchmark,
// see knnperf (benchmarks/).
package distknn

import (
	"errors"
	"fmt"
	"sync/atomic"

	"distknn/internal/core"
	"distknn/internal/election"
	"distknn/internal/kdtree"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// ErrClosed is returned by queries on a Cluster whose Close has been called.
var ErrClosed = errors.New("distknn: cluster closed")

// Re-exported data types. Item carries a point's distance key and label;
// Key is the (encoded distance, point ID) pair all algorithms order by.
type (
	// Item is one point's view in a query result.
	Item = points.Item
	// Key is the total-order key (distance, ID).
	Key = keys.Key
	// Scalar is a one-dimensional integer point (the paper's workload).
	Scalar = points.Scalar
	// Vector is a d-dimensional float64 point.
	Vector = points.Vector
	// Metric computes order-encoded distances for point type P.
	Metric[P any] = points.Metric[P]
)

// Algorithm selects the distributed query strategy; its String names it.
type Algorithm = core.Algorithm

// The algorithm roster, Alg2 the default. The baselines are the ones the
// paper's evaluation and related work compare against.
const (
	// Alg2 is the paper's Algorithm 2: O(log ℓ) rounds w.h.p.
	Alg2 = core.Alg2
	// Direct runs Algorithm 1 on all ≤ kℓ candidates: O(log ℓ + log k)
	// rounds.
	Direct = core.Direct
	// Simple is the gather-everything baseline: Θ(ℓ) rounds.
	Simple = core.Simple
	// SaukasSong is the deterministic weighted-median baseline.
	SaukasSong = core.SaukasSong
	// BinSearch bisects the key domain: Θ(domain bits) rounds.
	BinSearch = core.BinSearch
)

// Options configures a Cluster. At the default Alg2 a Cluster runs the
// paper's Las Vegas Algorithm 2 with Lemma 2.3's constants around the
// seed's min-GUID leader — the cost model — and, as every algorithm is
// exact, its answers are the serving stack's oracle.
type Options struct {
	// Machines is k, the number of simulated machines (default 4).
	Machines int
	// BandwidthBytes is the per-link capacity per round; 0 selects the
	// model default (64 B), negative means unlimited.
	BandwidthBytes int
	// Seed makes the cluster (partitioning, leader, algorithm
	// randomness) deterministic: two clusters built with equal inputs and
	// queried serially replay identically. Under concurrent issue the
	// per-query seeds follow arrival order, so cost metrics can vary run
	// to run; results stay exact either way.
	Seed uint64
	// Algorithm selects the query strategy (default Alg2).
	Algorithm Algorithm
}

func (o Options) withDefaults() Options {
	if o.Machines == 0 {
		o.Machines = 4
	}
	return o
}

// QueryStats reports the distributed cost of one query. Each query gets its
// own QueryStats; concurrent queries never share one.
type QueryStats struct {
	// Rounds, Messages and Bytes are the k-machine model costs of the
	// query protocol; the leader is computed from the seed and costs
	// nothing. A RemoteCluster reports its dispatch cost instead: Rounds
	// counts dispatch waves, Messages the node contacts (as Contacts) and
	// Bytes is 0, since its nodes exchange nothing.
	Rounds   int
	Messages int64
	Bytes    int64
	// Leader is the in-process cluster's cached leader machine. A
	// RemoteCluster reports 0, kept only for existing callers: the serving
	// frontend selects itself and has no leader, and seat 0 is the first
	// term of the Regress fold's ascending seat order.
	Leader int
	// Boundary is the ℓ-th neighbor's key.
	Boundary Key
	// Survivors counts candidates after Algorithm 2's prune (0 for other
	// algorithms, and over TCP); FellBack reports a Las Vegas re-run.
	Survivors int64
	FellBack  bool
	// Iterations counts selection pivot steps (0 over TCP).
	Iterations int
	// Contacts is the total number of (shard, sub-batch) contacts a remote
	// query made — Σ over the query batch of the number of nodes each point
	// was sent to, so Contacts divided by the batch size is the
	// contacted-nodes-per-query figure: k on full scatter, fewer when the
	// frontend prunes. 0 for in-process clusters, where every query reaches
	// every machine by construction.
	Contacts int64
}

// Cluster is an in-process k-machine deployment of a labeled dataset:
// create one with NewCluster (or the typed helpers), query it from as many
// goroutines as you like, and Close it when done. The leader is computed
// from the seed at construction, so queries pay only the O(log ℓ) query
// protocol.
type Cluster[P any] struct {
	opts    Options
	parts   []*points.Set[P] // immutable after construction
	n       int
	closed  atomic.Bool
	leader  int           // election.Leader of the seed, cached at construction
	queries atomic.Uint64 // per-query seed-derivation counter
	// localTopL computes machine i's ℓ nearest local points. The default
	// is the shard's block scan; NewVectorCluster installs a k-d-tree-backed
	// version. It must be safe for concurrent calls (both built-ins are:
	// they only read the immutable shard). Accelerating this step changes
	// local computation only — never the round/message complexity —
	// exactly the role the paper's related-work section assigns to k-d
	// trees (Section 1.4).
	localTopL func(i int, q P, l int) []Item
}

// NewCluster partitions pts (with optional labels, may be nil) across the
// configured number of simulated machines using a balanced random partition,
// the benign case of the model's adversarial placement.
func NewCluster[P any](pts []P, labels []float64, metric Metric[P], opts Options) (*Cluster[P], error) {
	opts = opts.withDefaults()
	set, err := points.NewSet(pts, labels, metric, 1)
	if err != nil {
		return nil, fmt.Errorf("distknn: %w", err)
	}
	rng := xrand.NewStream(opts.Seed, 0xC1)
	parts, err := points.Partition(set, opts.Machines, points.PartitionRandom, rng)
	if err != nil {
		return nil, fmt.Errorf("distknn: %w", err)
	}
	c := &Cluster[P]{opts: opts, parts: parts, n: set.Len(), leader: election.Leader(opts.Seed, opts.Machines)}
	c.localTopL = func(i int, q P, l int) []Item { return c.parts[i].TopLItems(q, l) }
	return c, nil
}

// NewScalarCluster builds a cluster of integer points under |a−b| distance.
func NewScalarCluster(values []uint64, labels []float64, opts Options) (*Cluster[Scalar], error) {
	pts := make([]Scalar, len(values))
	for i, v := range values {
		pts[i] = Scalar(v)
	}
	return NewCluster(pts, labels, points.ScalarMetric, opts)
}

// NewVectorCluster builds a cluster of d-dimensional points under Euclidean
// distance. Each machine indexes its shard with a k-d tree, so the local
// top-ℓ step costs O(ℓ·log(n/k)) expected instead of a linear scan; the
// tree produces bit-identical keys to the scan, so results are unchanged.
func NewVectorCluster(vecs []Vector, labels []float64, opts Options) (*Cluster[Vector], error) {
	c, err := NewCluster(vecs, labels, points.L2, opts)
	if err != nil {
		return nil, err
	}
	trees := make([]*kdtree.Tree, len(c.parts))
	for i, part := range c.parts {
		trees[i], err = kdtree.Build(part)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("distknn: indexing machine %d: %w", i, err)
		}
	}
	c.localTopL = func(i int, q Vector, l int) []Item { return trees[i].KNN(q, l) }
	return c, nil
}

// Len returns the total number of points in the cluster.
func (c *Cluster[P]) Len() int { return c.n }

// Machines returns k.
func (c *Cluster[P]) Machines() int { return len(c.parts) }

// Leader returns the cached leader machine index.
func (c *Cluster[P]) Leader() int { return c.leader }

// Close marks the cluster closed: later queries fail with ErrClosed. It is
// idempotent and safe to call concurrently with in-flight queries, which
// complete normally. A Cluster holds no goroutines between queries, so
// there is nothing to release.
func (c *Cluster[P]) Close() {
	c.closed.Store(true)
}

// sim is the configuration of one simulator run seeded by seed, or
// ErrClosed after Close. Every run the cluster makes — queries, batches and
// selection — is configured here.
func (c *Cluster[P]) sim(seed uint64) (kmachine.Config, error) {
	if c.closed.Load() {
		return kmachine.Config{}, ErrClosed
	}
	return kmachine.Config{K: len(c.parts), Seed: seed, BandwidthBytes: c.opts.BandwidthBytes}, nil
}

// KNN returns the exact ℓ nearest neighbors of q in ascending distance
// order, together with the query's distributed cost.
func (c *Cluster[P]) KNN(q P, l int) ([]Item, *QueryStats, error) {
	shares, stats, err := c.query(q, l)
	if err != nil {
		return nil, nil, err
	}
	return mergeWinners(shares), stats, nil
}

// Classify returns the majority label among the ℓ nearest neighbors of q
// (ties broken toward the smallest label). It runs the same query as KNN
// and folds the machines' winner shares in place, so its QueryStats equal
// KNN's: label aggregation is charged no rounds, the same convention as
// KNN's collection of the winners.
func (c *Cluster[P]) Classify(q P, l int) (float64, *QueryStats, error) {
	shares, stats, err := c.query(q, l)
	if err != nil {
		return 0, nil, err
	}
	label, err := core.ClassifyShares(shares)
	if err != nil {
		return 0, nil, err
	}
	return label, stats, nil
}

// Regress returns the mean label of the ℓ nearest neighbors of q: each
// machine's share summed in key order, then the machines' sums added in
// ascending machine order. Like Classify, it costs exactly what KNN costs.
func (c *Cluster[P]) Regress(q P, l int) (float64, *QueryStats, error) {
	shares, stats, err := c.query(q, l)
	if err != nil {
		return 0, nil, err
	}
	mean, err := core.RegressShares(shares)
	if err != nil {
		return 0, nil, err
	}
	return mean, stats, nil
}

// mergeWinners flattens each machine's share of the winning points into one
// ascending-order result.
func mergeWinners(winners [][]Item) []Item {
	var merged []Item
	for _, w := range winners {
		merged = append(merged, w...)
	}
	points.SortItems(merged)
	return merged
}

// runStats is the QueryStats of a run led by leader: the model costs, to
// which callers add their per-query fields.
func runStats(met *kmachine.Metrics, leader int) *QueryStats {
	return &QueryStats{Rounds: met.Rounds, Messages: met.Messages, Bytes: met.Bytes, Leader: leader}
}

// querySeed derives a fresh, race-free seed for the next query.
func (c *Cluster[P]) querySeed() uint64 {
	return xrand.DeriveSeed(c.opts.Seed, c.queries.Add(1))
}

// query runs the configured algorithm for q as one simulator run, with the
// cached leader and no per-query election, and returns each machine's share
// of the winners (ascending key order) and the query's cost.
// All mutable state is per-call, so any number of queries may be in flight
// at once.
func (c *Cluster[P]) query(q P, l int) ([][]Item, *QueryStats, error) {
	res, stats, err := c.run([]P{q}, l)
	if err != nil {
		return nil, nil, err
	}
	lead := res[0][stats.Leader]
	stats.Boundary = lead.Boundary
	stats.Survivors = lead.Survivors
	stats.FellBack = lead.FellBack
	stats.Iterations = lead.Iterations
	return shares(res[0]), stats, nil
}

// run answers queries back to back at rank l with the configured algorithm
// as one simulator run on the next query seed, and returns every machine's
// result for every query and the run's cost.
func (c *Cluster[P]) run(queries []P, l int) ([][]core.Result, *QueryStats, error) {
	if l < 1 || l > c.n {
		return nil, nil, fmt.Errorf("distknn: l=%d out of range [1, %d]", l, c.n)
	}
	sim, err := c.sim(c.querySeed())
	if err != nil {
		return nil, nil, err
	}
	// Lemma 2.3's constants and the cached leader.
	cfg := core.Config{Leader: c.leader, L: l}
	res, met, err := core.Run(sim, c.opts.Algorithm, cfg, len(queries), func(id, qi int) []Item {
		return c.localTopL(id, queries[qi], l)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, runStats(met, cfg.Leader), nil
}

// shares collects each machine's share of one query's winners.
func shares(res []core.Result) [][]Item {
	out := make([][]Item, len(res))
	for id, r := range res {
		out[id] = r.Winners
	}
	return out
}
