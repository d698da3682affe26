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
// exact: the default Las Vegas mode verifies the algorithm's random pruning
// step and falls back to un-pruned selection in the ≤ 2/ℓ² of runs where it
// over-prunes.
//
// # Serving model
//
// A Cluster is a persistent deployment, built to serve a stream of queries
// rather than a single one. Construction pays all one-time costs exactly
// once: the dataset is partitioned, the machine goroutines are started (and
// stay resident between queries), and a leader is elected and cached. Every
// subsequent query therefore runs zero election rounds, and steady-state
// serial queries spawn zero goroutines — each costs only the paper's
// O(log ℓ) query protocol. Concurrent bursts grow a bounded pool of resident
// simulation worlds (one per in-flight query, reused thereafter). Call
// Close when done with a cluster to release the resident goroutines.
//
// # Concurrency
//
// A Cluster is safe for concurrent use: any number of goroutines may call
// KNN, Classify, Regress, KNNBatch, SelectRank and Median simultaneously.
// Each in-flight query executes on its own isolated simulation world (own
// link timelines, own metrics), so concurrent queries neither contend on the
// model's bandwidth nor perturb each other's QueryStats, and in the default
// Las Vegas mode every query's result is exact regardless of interleaving.
// The shards are immutable after construction and per-query randomness is
// derived from an atomic counter, so the old "not safe for concurrent
// queries" caveat is gone. (Seed assignment follows arrival order, so
// per-query cost metrics — and MonteCarlo-mode failures — are deterministic
// only under serial issue; see Options.Seed.)
//
// # Serving over TCP
//
// The same serving model runs over real sockets, generic over the point
// type: a Frontend plus k resident nodes (ServeTypedNode with a PointType
// — scalar, k-d-tree-indexed vector and bit-packed Hamming shards ship —
// or ServeTypedLocal for a single-process loopback deployment) mesh up
// once, elect a leader once, and answer each dispatched query batch as
// one BSP epoch on the standing mesh; a batch's queries run as lockstep
// sub-programs sharing the epoch's physical rounds, so KNNBatch over TCP
// amortizes frames, syscalls and round latency across the batch. The
// frontend's epoch scheduler pipelines up to FrontendOptions.Window
// epochs from concurrent clients on the mesh at once and can coalesce
// concurrently arriving single queries into lockstep batch epochs
// (FrontendOptions.ServerBatch) — answers stay bit-identical to
// serialized execution. A RemoteCluster is the client handle: the same
// KNN/Classify/Regress/KNNBatch surface, the same exact results,
// deterministic per (seed, query stream). See remote.go,
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
// cmd/knnbench; for a concurrent throughput benchmark, see cmd/knnquery
// -serve; for running over real TCP sockets, see cmd/knnnode -serve,
// RemoteCluster, and internal/transport/tcp.
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
	// BitVector is a bit-packed point compared under Hamming distance
	// (64 features per word).
	BitVector = points.BitVector
	// Metric computes order-encoded distances for point type P.
	Metric[P any] = points.Metric[P]
)

// Algorithm selects the distributed query strategy.
type Algorithm int

const (
	// Alg2 is the paper's Algorithm 2: O(log ℓ) rounds w.h.p. Default.
	Alg2 Algorithm = iota
	// Direct runs Algorithm 1 on all ≤ kℓ candidates: O(log ℓ + log k)
	// rounds.
	Direct
	// Simple is the gather-everything baseline: Θ(ℓ) rounds.
	Simple
	// SaukasSong is the deterministic weighted-median baseline.
	SaukasSong
	// BinSearch bisects the key domain: Θ(domain bits) rounds.
	BinSearch
)

// String names the algorithm for logs and tables.
func (a Algorithm) String() string {
	switch a {
	case Alg2:
		return "alg2"
	case Direct:
		return "direct"
	case Simple:
		return "simple"
	case SaukasSong:
		return "saukas-song"
	case BinSearch:
		return "binsearch"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Options configures a Cluster.
type Options struct {
	// Machines is k, the number of simulated machines (default 4).
	Machines int
	// BandwidthBytes is the per-link capacity per round; 0 selects the
	// model default (64 B), negative means unlimited.
	BandwidthBytes int
	// Seed makes the cluster (partitioning, election, algorithm
	// randomness) deterministic: two clusters built with equal inputs and
	// queried serially replay identically. Under concurrent issue the
	// per-query seeds follow arrival order, so cost metrics (and, in
	// MonteCarlo mode, which query trips a failure) can vary run to run;
	// results stay exact either way in the default Las Vegas mode.
	Seed uint64
	// Algorithm selects the query strategy (default Alg2).
	Algorithm Algorithm
	// SublinearElection uses the randomized O(√k·log^{3/2} k)-message
	// leader election instead of the min-GUID broadcast. Either way the
	// election runs once, at construction.
	SublinearElection bool
	// SampleFactor and CutFactor override Algorithm 2's Lemma 2.3
	// constants (defaults 12 and 21).
	SampleFactor, CutFactor int
	// MonteCarlo disables the Las Vegas verification; queries then fail
	// with core.ErrMonteCarloFailure with probability ≤ 2/ℓ².
	MonteCarlo bool
	// RandomIDs assigns points random IDs in [1, n³] (the paper's scheme,
	// unique w.h.p. and verified at construction) instead of sequential
	// unique IDs.
	RandomIDs bool
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
	// Rounds, Messages and Bytes are the k-machine model costs. They
	// cover the query protocol only: leader election happened once at
	// cluster construction and is not charged to any query.
	Rounds   int
	Messages int64
	Bytes    int64
	// Leader is the cluster's cached leader machine.
	Leader int
	// Boundary is the ℓ-th neighbor's key.
	Boundary Key
	// Survivors counts candidates after Algorithm 2's prune (0 for other
	// algorithms); FellBack reports a Las Vegas re-run.
	Survivors int64
	FellBack  bool
	// Iterations counts selection pivot steps.
	Iterations int
	// Contacts is the total number of (shard, sub-batch) contacts a remote
	// pruned dispatch made — Σ over the query batch of the number of nodes
	// each point was sent to, so Contacts divided by the batch size is the
	// contacted-nodes-per-query figure. 0 for full-scatter epochs and
	// in-process clusters, where every query reaches every machine by
	// construction.
	Contacts int64
}

// electionStream is the seed-derivation stream reserved for the
// construction-time election; query streams are the small positive integers
// from the query counter, so they never collide with it.
const electionStream = ^uint64(0)

// Cluster is an in-process k-machine deployment of a labeled dataset:
// create one with NewCluster (or the typed helpers), query it from as many
// goroutines as you like, and Close it when done. The machine goroutines
// persist across queries and the leader is elected once at construction, so
// steady-state queries pay only the O(log ℓ) query protocol.
type Cluster[P any] struct {
	opts    Options
	parts   []*points.Set[P] // immutable after construction
	n       int
	rt      *kmachine.Runtime
	leader  atomic.Int64  // cached election winner; re-derivable via ElectLeader
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
// the benign case of the model's adversarial placement, then starts the
// resident machine goroutines and elects the leader.
func NewCluster[P any](pts []P, labels []float64, metric Metric[P], opts Options) (*Cluster[P], error) {
	opts = opts.withDefaults()
	set, err := points.NewSet(pts, labels, metric, 1)
	if err != nil {
		return nil, fmt.Errorf("distknn: %w", err)
	}
	rng := xrand.NewStream(opts.Seed, 0xC1)
	if opts.RandomIDs {
		set.AssignRandomIDs(rng, uint64(set.Len()))
		if points.CollidingIDs(set) {
			// Astronomically unlikely (probability ~1/n); redraw once.
			set.AssignRandomIDs(rng, uint64(set.Len()))
			if points.CollidingIDs(set) {
				return nil, fmt.Errorf("distknn: random point IDs collided twice")
			}
		}
	}
	parts, err := points.Partition(set, opts.Machines, points.PartitionRandom, rng)
	if err != nil {
		return nil, fmt.Errorf("distknn: %w", err)
	}
	c := &Cluster[P]{opts: opts, parts: parts, n: set.Len()}
	c.localTopL = func(i int, q P, l int) []Item { return c.parts[i].TopLItems(q, l) }
	c.rt, err = kmachine.NewRuntime(kmachine.Config{
		K:              opts.Machines,
		BandwidthBytes: opts.BandwidthBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("distknn: %w", err)
	}
	leader, _, err := c.runElection()
	if err != nil {
		c.rt.Close()
		return nil, fmt.Errorf("distknn: electing leader: %w", err)
	}
	c.leader.Store(int64(leader))
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
func (c *Cluster[P]) Leader() int { return int(c.leader.Load()) }

// Close releases the cluster's resident machine goroutines. It is
// idempotent and safe to call concurrently with in-flight queries: those
// queries complete normally, and later queries fail with ErrClosed.
func (c *Cluster[P]) Close() {
	c.rt.Close()
}

// ElectLeader re-derives the leader by re-running the configured election
// protocol on the live cluster and refreshes the cached value. Steady-state
// queries never need this — the construction-time winner stays valid for the
// lifetime of the cluster — but it demonstrates the cached leader is
// re-derivable on demand and reports the election's distributed cost.
func (c *Cluster[P]) ElectLeader() (int, *QueryStats, error) {
	leader, met, err := c.runElection()
	if err != nil {
		return 0, nil, c.wrapErr(err)
	}
	c.leader.Store(int64(leader))
	return leader, &QueryStats{
		Rounds:   met.Rounds,
		Messages: met.Messages,
		Bytes:    met.Bytes,
		Leader:   leader,
	}, nil
}

// runElection executes one election across the runtime.
func (c *Cluster[P]) runElection() (int, *kmachine.Metrics, error) {
	return election.Once(c.rt, xrand.DeriveSeed(c.opts.Seed, electionStream), election.OnceOptions{
		Sublinear:      c.opts.SublinearElection,
		BandwidthBytes: c.opts.BandwidthBytes,
	})
}

// wrapErr maps runtime-closed errors to ErrClosed.
func (c *Cluster[P]) wrapErr(err error) error {
	if errors.Is(err, kmachine.ErrClosed) {
		return ErrClosed
	}
	return err
}

// KNN returns the exact ℓ nearest neighbors of q in ascending distance
// order, together with the query's distributed cost.
func (c *Cluster[P]) KNN(q P, l int) ([]Item, *QueryStats, error) {
	if l < 1 || l > c.n {
		return nil, nil, fmt.Errorf("distknn: l=%d out of range [1, %d]", l, c.n)
	}
	winners, stats, _, err := c.run(q, l, false)
	if err != nil {
		return nil, nil, err
	}
	return winners, stats, nil
}

// Classify returns the majority label among the ℓ nearest neighbors of q
// (ties broken toward the smallest label).
func (c *Cluster[P]) Classify(q P, l int) (float64, *QueryStats, error) {
	if l < 1 || l > c.n {
		return 0, nil, fmt.Errorf("distknn: l=%d out of range [1, %d]", l, c.n)
	}
	_, stats, label, err := c.run(q, l, true)
	if err != nil {
		return 0, nil, err
	}
	return label, stats, nil
}

// Regress returns the mean label of the ℓ nearest neighbors of q.
func (c *Cluster[P]) Regress(q P, l int) (float64, *QueryStats, error) {
	if l < 1 || l > c.n {
		return 0, nil, fmt.Errorf("distknn: l=%d out of range [1, %d]", l, c.n)
	}
	stats := &QueryStats{}
	var mean float64
	err := c.execute(q, l, stats, func(m kmachine.Env, leader int, res core.Result) error {
		v, err := core.Regress(m, leader, res.Winners)
		if err != nil {
			return err
		}
		if m.ID() == leader {
			mean = v
		}
		return nil
	}, nil)
	if err != nil {
		return 0, nil, err
	}
	return mean, stats, nil
}

// KNNOneShot answers one query the pre-runtime way: a throwaway simulation
// world is spawned, a leader is elected inside the run, and everything is
// torn down afterwards. Results are identical to KNN; only the cost
// differs. It exists so benchmarks and tests can measure exactly what the
// persistent runtime saves on the steady-state path, against the cluster's
// own shards.
func (c *Cluster[P]) KNNOneShot(q P, l int) ([]Item, *QueryStats, error) {
	if l < 1 || l > c.n {
		return nil, nil, fmt.Errorf("distknn: l=%d out of range [1, %d]", l, c.n)
	}
	if c.rt.Closed() {
		return nil, nil, ErrClosed
	}
	seed := c.querySeed()
	algoFn := c.algoFn()
	cfg := c.baseConfig(l)
	stats := &QueryStats{}
	winners := make([][]Item, len(c.parts))
	prog := func(m kmachine.Env) error {
		leader, err := election.Elect(m, election.OnceOptions{
			Sublinear:      c.opts.SublinearElection,
			BandwidthBytes: c.opts.BandwidthBytes,
		})
		if err != nil {
			return err
		}
		local := c.localTopL(m.ID(), q, l)
		cfg := cfg
		cfg.Leader = leader
		res, err := algoFn(m, cfg, local)
		if err != nil {
			return err
		}
		winners[m.ID()] = res.Winners
		if m.ID() == leader {
			fillLeaderStats(stats, leader, res)
		}
		return nil
	}
	met, err := kmachine.Run(kmachine.Config{
		K:              len(c.parts),
		Seed:           seed,
		BandwidthBytes: c.opts.BandwidthBytes,
	}, prog)
	if err != nil {
		return nil, nil, err
	}
	stats.Rounds = met.Rounds
	stats.Messages = met.Messages
	stats.Bytes = met.Bytes
	return mergeWinners(winners), stats, nil
}

// run executes a query, optionally following it with a classification.
func (c *Cluster[P]) run(q P, l int, classify bool) ([]Item, *QueryStats, float64, error) {
	stats := &QueryStats{}
	var label float64
	winners := make([][]Item, len(c.parts))
	post := func(m kmachine.Env, leader int, res core.Result) error {
		if classify {
			v, err := core.Classify(m, leader, res.Winners)
			if err != nil {
				return err
			}
			if m.ID() == leader {
				label = v
			}
		}
		return nil
	}
	err := c.execute(q, l, stats, post, winners)
	if err != nil {
		return nil, nil, 0, err
	}
	return mergeWinners(winners), stats, label, nil
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

// fillLeaderStats copies the leader-observed result fields into stats. Every
// query path — steady-state and one-shot — goes through it so the two never
// drift.
func fillLeaderStats(stats *QueryStats, leader int, res core.Result) {
	stats.Leader = leader
	stats.Boundary = res.Boundary
	stats.Survivors = res.Survivors
	stats.FellBack = res.FellBack
	stats.Iterations = res.Iterations
}

// querySeed derives a fresh, race-free seed for the next query.
func (c *Cluster[P]) querySeed() uint64 {
	return xrand.DeriveSeed(c.opts.Seed, c.queries.Add(1))
}

// baseConfig is the single source of the per-query protocol configuration.
// Callers on the steady-state path set Leader to the cached winner;
// KNNOneShot leaves it to the in-run election.
func (c *Cluster[P]) baseConfig(l int) core.Config {
	cfg := core.Config{
		L:            l,
		SampleFactor: c.opts.SampleFactor,
		CutFactor:    c.opts.CutFactor,
	}
	if c.opts.MonteCarlo {
		cfg.Mode = core.ModeMonteCarlo
	}
	return cfg
}

// execute runs the configured algorithm across the resident machines, with
// the cached leader and no per-query election. post, if non-nil, runs after
// the query with the winners; collect, if non-nil, receives each machine's
// local winners. All mutable state (stats, collect, post's captures) is
// per-call, so any number of executes may be in flight at once.
func (c *Cluster[P]) execute(q P, l int, stats *QueryStats,
	post func(m kmachine.Env, leader int, res core.Result) error, collect [][]Item) error {
	seed := c.querySeed()
	leader := c.Leader()
	algoFn := c.algoFn()
	cfg := c.baseConfig(l)
	cfg.Leader = leader
	prog := func(m kmachine.Env) error {
		local := c.localTopL(m.ID(), q, l)
		res, err := algoFn(m, cfg, local)
		if err != nil {
			return err
		}
		if collect != nil {
			collect[m.ID()] = res.Winners
		}
		if m.ID() == leader {
			fillLeaderStats(stats, leader, res)
		}
		if post != nil {
			return post(m, leader, res)
		}
		return nil
	}
	met, err := c.rt.ExecuteSeeded(seed, prog)
	if err != nil {
		return c.wrapErr(err)
	}
	stats.Rounds = met.Rounds
	stats.Messages = met.Messages
	stats.Bytes = met.Bytes
	return nil
}

func (c *Cluster[P]) algoFn() func(kmachine.Env, core.Config, []Item) (core.Result, error) {
	return algorithmFn(c.opts.Algorithm)
}

// algorithmFn maps an Algorithm to its protocol implementation. Both the
// in-process Cluster and the TCP serving node dispatch through it, so the
// two runtimes can never disagree on what an Algorithm value means.
func algorithmFn(a Algorithm) func(kmachine.Env, core.Config, []Item) (core.Result, error) {
	switch a {
	case Direct:
		return core.DirectKNN
	case Simple:
		return core.SimpleKNN
	case SaukasSong:
		return core.SaukasSongKNN
	case BinSearch:
		return core.BinarySearchKNN
	default:
		return core.KNN
	}
}
