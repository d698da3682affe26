package distknn

import (
	"fmt"
	"math"

	"distknn/internal/kdtree"
	"distknn/internal/keys"
	"distknn/internal/metricindex"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/transport/tcp"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// This file is the real-socket counterpart of the in-process Cluster: a
// serving deployment over TCP, generic over the point type. The cluster
// side is a Frontend (node seating + client-facing query endpoint) plus k
// resident nodes (ServeTypedNode), each holding one shard; the client side
// is a RemoteCluster, which offers the same KNN/Classify/Regress/KNNBatch
// surface as Cluster. The frontend answers every call itself: it sends the
// query's points to the nodes, each returns its local top-ℓ, and the
// frontend selects — the paper's SimpleKNN with the frontend as leader. A
// whole KNNBatch travels as a single batched dispatch.
// ServeTypedLocalOptions wires a whole loopback deployment together in one
// process for tests, benchmarks and demos.
//
// What a point type needs to cross this stack is bundled in a PointType:
// the wire codec (tag + encode/decode), the distance metric, and the local
// index the nodes answer their top-ℓ step from. Five instances ship
// (ScalarPoints, VectorPoints, L1Points, LInfPoints and CosinePoints); the
// transport below never learns what a point is.

// ErrSessionLost marks a serving node's exit because its session died
// under it — the frontend vanished, or evicted the node. The node's seat is recoverable: call ServeTypedNode again and the
// frontend re-seats the node in the running session, as cmd/knnnode's
// -rejoin loop does. Matched with errors.Is.
var ErrSessionLost = tcp.ErrSessionLost

// ErrClusterDegraded marks a remote query refused (or failed in flight)
// because the serving cluster is missing nodes after churn. The failure is
// transient and safe to retry — every query op is an idempotent read — and
// the cluster answers again once the absent node re-joins. RemoteCluster
// already rides out outages shorter than ClientOptions.RetryWait
// transparently; match with errors.Is to keep retrying on top of that.
var ErrClusterDegraded = tcp.ErrDegraded

// Metrics is a runtime-metrics registry for the serving stack: pass one
// in FrontendOptions, NodeOptions or ClientOptions and the instrumented
// component records its counters, gauges and latency histograms there.
// Recording is lock-free atomics on the hot path and never perturbs
// served answers; read a consistent view with Snapshot, or expose the
// registry over HTTP with ServeAdmin. One registry may be shared by any
// number of components (metric names do not collide across roles).
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Tracer records per-epoch trace spans — admission → dispatch →
// per-seat arrival → collation → reply, with nanosecond stage offsets —
// into a fixed ring of the given depth. Pass one in
// FrontendOptions.Trace; read recent spans with Recent, or expose the ring
// over HTTP with ServeAdmin. A nil Tracer (the default) records nothing.
type Tracer = obs.Tracer

// NewTracer returns a tracer holding the last depth spans (depth <= 0
// selects the default of 256).
func NewTracer(depth int) *Tracer { return obs.NewTracer(depth) }

// Health is a point-in-time cluster health report, as served by the
// admin plane's /healthz endpoint (see Frontend.Health).
type Health = obs.Health

// AdminOptions selects what an admin endpoint exposes: a Metrics
// registry (/metrics), a Tracer (/trace/recent), and a health callback
// (/healthz). Every field is optional.
type AdminOptions = obs.AdminOptions

// AdminServer is a running admin HTTP endpoint; Close releases its
// listener.
type AdminServer = obs.Admin

// ServeAdmin starts an admin HTTP endpoint on addr serving /metrics,
// /healthz, /trace/recent and /debug/pprof/*. It binds immediately and
// serves in the background until Close. The admin plane is strictly
// read-only observation: it shares no locks with the query path, so a
// slow scrape cannot stall serving.
func ServeAdmin(addr string, o AdminOptions) (*AdminServer, error) { return obs.ServeAdmin(addr, o) }

// NodeOptions configures a resident serving node. Every node does the same
// work for every query: it returns its shard's local top-ℓ for the points
// it is sent, and the frontend selects.
type NodeOptions struct {
	// Metrics optionally receives the node's runtime metrics (dispatches
	// served, control-plane bytes). Nil records nothing. Each node process
	// passes its own registry.
	Metrics *Metrics
}

// Shard is the slice of the global dataset one serving node holds.
type Shard[P any] struct {
	// Points are the node's points.
	Points []P
	// Labels carries one label per point; nil means all zero.
	Labels []float64
	// FirstID is the node's first point ID; the shard occupies the ID
	// block [FirstID, FirstID+len(Points)). Blocks must not overlap
	// across nodes — IDs are the global tie-breaker, so a collision
	// silently merges two points.
	FirstID uint64
	// IDs optionally assigns one explicit global ID per point, for
	// providers whose shards are not contiguous ID ranges (the
	// anchor-clustered providers). When set, FirstID is ignored. IDs must
	// stay unique across the cluster.
	IDs []uint64
	// Center optionally pins the shard's metric-index centroid — the
	// anchor of an anchor-clustered shard. When nil, the node summarizes
	// the shard around an approximate medoid instead.
	Center *P
}

// ShardProvider builds the shard for machine id of k. It runs on the node
// after the coordinator assigns its identity — the serving analogue of
// "each machine holds its part of the data" — so a provider typically
// generates or loads data keyed by id.
type ShardProvider[P any] func(id, k int) (Shard[P], error)

// PointType bundles everything the serving stack needs to handle one point
// type: the wire codec, the distance metric, and the local top-ℓ index the
// nodes answer from. Five instances ship: ScalarPoints, VectorPoints,
// L1Points, LInfPoints and CosinePoints. The TCP transport itself never
// learns what a point is, so
// supporting a new point type means writing a wire.PointCodec and a
// PointType — no transport changes.
type PointType[P any] struct {
	codec  wire.PointCodec[P]
	metric points.Metric[P]
	// index builds the local top-ℓ accelerator for a shard; nil selects
	// the block scan (points.Set.TopLItems): the metric's batch kernel
	// fills a block of distances, and only those that beat the current
	// cutoff reach the bounded heap.
	index func(set *points.Set[P]) (func(q P, l int, ceil ...keys.Key) []Item, error)
	// keyDist converts an encoded distance key back to the true metric
	// distance (e.g. the square root of a decoded squared L2 key). The
	// true distances must satisfy the triangle inequality; nil marks a
	// distance that is not a metric (cosine) and disables metric-index
	// pruning for the type.
	keyDist func(uint64) float64
	// compat validates that a query point is comparable to a reference
	// point (e.g. equal dimensions): a shard centroid for frontend-side
	// pruning, the shard's first point on the node. Nil means always
	// comparable.
	compat func(q, c P) error
}

// Pruner is the metric-space geometry a frontend needs for pruned dispatch;
// build one with PointType.Pruner and pass it in FrontendOptions.
type Pruner = tcp.Pruner

// Pruner returns the frontend-side pruning geometry of the point type, or
// nil when the type's distance is not a true metric (cosine) — a nil Pruner
// in FrontendOptions simply keeps every query on the full-scatter path.
func (pt PointType[P]) Pruner() Pruner {
	if pt.keyDist == nil {
		return nil
	}
	return &metricindex.WirePruner[P]{
		Codec:  pt.codec,
		Metric: pt.metric,
		Key:    pt.keyDist,
		Compat: pt.compat,
	}
}

// vectorCompat rejects a query whose dimension differs from a reference
// point's, before either side measures their distance.
func vectorCompat(q, c Vector) error {
	if len(q) != len(c) {
		return fmt.Errorf("query dimension %d, shard dimension %d", len(q), len(c))
	}
	return nil
}

// ScalarPoints is the paper's workload: one-dimensional integer points
// under |a−b| distance, answered from the block scan with the hand-written
// scalar kernel — deliberately no index: this is the paper's un-indexed
// local step.
func ScalarPoints() PointType[Scalar] {
	return PointType[Scalar]{
		codec:   wire.ScalarCodec,
		metric:  points.ScalarMetric,
		keyDist: func(d uint64) float64 { return float64(d) },
	}
}

// VectorPoints is the d-dimensional Euclidean workload: every node indexes
// its shard with a k-d tree, so the local top-ℓ step costs O(ℓ·log(n/k))
// expected instead of a linear scan — bit-identical keys to the scan, so
// served results match the in-process NewVectorCluster exactly.
func VectorPoints() PointType[Vector] {
	return PointType[Vector]{
		codec:  wire.VectorCodec,
		metric: points.L2,
		index: func(set *points.Set[Vector]) (func(q Vector, l int, ceil ...keys.Key) []Item, error) {
			tree, err := kdtree.Build(set)
			if err != nil {
				return nil, err
			}
			return tree.KNN, nil
		},
		// L2 keys encode the squared distance; the true metric distance is
		// its square root.
		keyDist: func(d uint64) float64 { return math.Sqrt(keys.DecodeFloat(d)) },
		compat:  vectorCompat,
	}
}

// L1Points is the Manhattan-distance vector workload, answered from the
// block scan through the per-point kernel adaptor. Served results are
// bit-identical to an in-process NewCluster built over the merged data with
// points.L1.
func L1Points() PointType[Vector] {
	return PointType[Vector]{
		codec:   wire.VectorCodec,
		metric:  points.L1,
		keyDist: keys.DecodeFloat,
		compat:  vectorCompat,
	}
}

// LInfPoints is the Chebyshev-distance (L∞) vector workload, answered from
// the block scan through the per-point kernel adaptor. Served results are
// bit-identical to an in-process NewCluster built over the merged data with
// points.LInf.
func LInfPoints() PointType[Vector] {
	return PointType[Vector]{
		codec:   wire.VectorCodec,
		metric:  points.LInf,
		keyDist: keys.DecodeFloat,
		compat:  vectorCompat,
	}
}

// CosinePoints is the cosine-distance vector workload (1 − cosine
// similarity), answered from the block scan through the per-point kernel
// adaptor. Cosine distance violates the triangle inequality, so the type
// deliberately carries no pruning geometry — its Pruner is nil and clusters
// serving it always run full-scatter epochs. Served results are bit-identical to an in-process
// NewCluster built over the merged data with points.Cosine.
func CosinePoints() PointType[Vector] {
	return PointType[Vector]{
		codec:  wire.VectorCodec,
		metric: points.Cosine,
		compat: vectorCompat,
	}
}

// PaperShards is the ShardProvider for the paper's synthetic workload,
// generated exactly as the bench instances generate it: node id draws
// perNode scalars uniform in [0, 2³²) from stream id of seed, labels are
// the values scaled to [0, 1] (so regression has a meaningful target), and
// the node owns the ID block [id·perNode+1, (id+1)·perNode]. Simulator and
// serving deployments built from the same seed therefore hold — and answer
// over — identical data.
func PaperShards(seed uint64, perNode int) ShardProvider[Scalar] {
	return func(id, k int) (Shard[Scalar], error) {
		set := points.GenUniformScalars(xrand.NewStream(seed, uint64(id)), perNode, points.PaperDomain)
		return Shard[Scalar]{
			Points:  set.Pts,
			Labels:  set.Labels,
			FirstID: uint64(id)*uint64(perNode) + 1,
		}, nil
	}
}

// UniformVectorShards is the vector counterpart of PaperShards: node id
// draws perNode points uniform in [0,1)^dim from stream id of seed, labels
// cycle 0..3 by global index (so classification has a target), and the node
// owns the ID block [id·perNode+1, (id+1)·perNode].
func UniformVectorShards(seed uint64, perNode, dim int) ShardProvider[Vector] {
	return func(id, k int) (Shard[Vector], error) {
		set := points.GenUniformVectors(xrand.NewStream(seed, uint64(id)), perNode, dim)
		labels := make([]float64, perNode)
		for j := range labels {
			labels[j] = float64((id*perNode + j) % 4)
		}
		return Shard[Vector]{
			Points:  set.Pts,
			Labels:  labels,
			FirstID: uint64(id)*uint64(perNode) + 1,
		}, nil
	}
}

// anchorShard carves cluster id out of the deterministic k-center
// clustering of a global dataset: the shard holds the cluster's members
// with their global IDs (point j is ID j+1, matching the uniform
// providers' numbering of the same data) and pins the cluster's anchor as
// its centroid. Every node recomputes the identical clustering from the
// shared seed, so the result stays a pure function of (id, k) and a
// re-joining node rebuilds a bit-identical shard.
func anchorShard[P any](pts []P, labels []float64, metric points.Metric[P], seed uint64, id, k int) (Shard[P], error) {
	cl := metricindex.KCenter(pts, metric, k, seed)
	var sh Shard[P]
	if id >= len(cl.Anchors) {
		return sh, nil // k > n: more seats than points; the shard is empty
	}
	for j, c := range cl.Assign {
		if c != id {
			continue
		}
		sh.Points = append(sh.Points, pts[j])
		sh.Labels = append(sh.Labels, labels[j])
		sh.IDs = append(sh.IDs, uint64(j)+1)
	}
	anchor := pts[cl.Anchors[id]]
	sh.Center = &anchor
	return sh, nil
}

// anchored re-partitions the global dataset of a block provider — the
// concatenation of its k shards, so point j keeps ID j+1 and its label — by
// anchorShard's seeded k-center clustering.
func anchored[P any](block ShardProvider[P], metric points.Metric[P], seed uint64) ShardProvider[P] {
	return func(id, k int) (Shard[P], error) {
		var pts []P
		var labels []float64
		for node := 0; node < k; node++ {
			sh, err := block(node, k)
			if err != nil {
				return Shard[P]{}, err
			}
			pts = append(pts, sh.Points...)
			labels = append(labels, sh.Labels...)
		}
		return anchorShard(pts, labels, metric, seed, id, k)
	}
}

// AnchorShards is the anchor-clustered counterpart of PaperShards: the same
// global dataset (IDs and labels match PaperShards point for point)
// partitioned by a deterministic seeded k-center clustering instead of
// uniform ID blocks. Shard id holds cluster id's members and pins its
// anchor as the centroid, giving the frontend's pruned dispatch tight balls
// to test query ranges against — answers are bit-identical to any other
// partition of the same data.
func AnchorShards(seed uint64, perNode int) ShardProvider[Scalar] {
	return anchored(PaperShards(seed, perNode), points.ScalarMetric, seed)
}

// AnchorVectorShards is the anchor-clustered counterpart of
// UniformVectorShards: the same global vector dataset (IDs and cycling
// labels match point for point) partitioned by a deterministic seeded
// k-center clustering, with each shard's anchor pinned as its centroid.
func AnchorVectorShards(seed uint64, perNode, dim int) ShardProvider[Vector] {
	return anchored(UniformVectorShards(seed, perNode, dim), points.L2, seed)
}

// AnchorGaussianShards is the anchor-clustered Gaussian workload: k·perNode
// points drawn from k isotropic Gaussian blobs (labels are blob indices),
// partitioned by a seeded k-center clustering with anchors as centroids.
// This is the favorable regime for pruned dispatch — shards track the blobs,
// so a query near one blob provably cannot have neighbors in most others —
// the workload behind the prune gate tests and knnperf's pruned_mixed.
func AnchorGaussianShards(seed uint64, perNode, dim int, sigma float64) ShardProvider[Vector] {
	return func(id, k int) (Shard[Vector], error) {
		set, _ := points.GenGaussianClusters(xrand.NewStream(seed, 0), k*perNode, dim, k, sigma)
		return anchorShard(set.Pts, set.Labels, points.L2, seed, id, k)
	}
}

// typedHandler adapts a PointType + ShardProvider to the transport's
// per-epoch Handler interface.
type typedHandler[P any] struct {
	pt     PointType[P]
	shards ShardProvider[P]

	// shardLen and first (the shard's first point, which compat checks
	// queries against) are all the handler reads of its shard itself: an
	// indexed type keeps its points only in the index.
	shardLen int
	first    P
	topL     func(q P, l int, ceil ...keys.Key) []Item
}

// Load builds the node's shard, local index and metric summary for machine
// id of k, and returns the ready report that carries them to the frontend.
// It runs at rendezvous and on a re-join alike. Because ShardProvider is a
// deterministic function of (id, k), a re-joined seat's shard is identical
// to the one it held before, which the frontend verifies via the reported
// shard size and metric summary (and which keeps served answers
// bit-identical to an uninterrupted cluster).
func (h *typedHandler[P]) Load(id, k int) (wire.Ready, error) {
	shard, err := h.shards(id, k)
	if err != nil {
		return wire.Ready{}, fmt.Errorf("distknn: shard for node %d: %w", id, err)
	}
	set, err := points.NewSet(shard.Points, shard.Labels, h.pt.metric, shard.FirstID)
	if err != nil {
		return wire.Ready{}, fmt.Errorf("distknn: %w", err)
	}
	if shard.IDs != nil {
		if len(shard.IDs) != len(shard.Points) {
			return wire.Ready{}, fmt.Errorf("distknn: node %d shard has %d IDs for %d points", id, len(shard.IDs), len(shard.Points))
		}
		copy(set.IDs, shard.IDs)
	}
	if h.pt.index != nil {
		h.topL, err = h.pt.index(set)
		if err != nil {
			return wire.Ready{}, fmt.Errorf("distknn: indexing node %d: %w", id, err)
		}
	} else {
		h.topL = set.TopLItems
	}
	h.shardLen = set.Len()
	if h.shardLen > 0 {
		h.first = set.Pts[0]
	}
	return wire.Ready{ShardLen: int64(h.shardLen), PointTag: h.pt.codec.Tag, Summary: h.summarize(shard)}, nil
}

// summarize computes the shard's metric-index summary: its centroid (the
// provider's explicit Center, or an approximate medoid of the shard) and
// the true-distance radius around it. Has stays false — which disables
// pruned dispatch for the whole session — when the point type has no
// pruning geometry (cosine) or when an anchorless shard is empty.
func (h *typedHandler[P]) summarize(shard Shard[P]) wire.ShardSummary {
	if h.pt.keyDist == nil {
		return wire.ShardSummary{}
	}
	var center P
	if shard.Center != nil {
		center = *shard.Center
	} else {
		m := metricindex.ApproxMedoid(shard.Points, h.pt.metric)
		if m < 0 {
			return wire.ShardSummary{}
		}
		center = shard.Points[m]
	}
	return wire.ShardSummary{
		Has:    true,
		Radius: metricindex.Radius(shard.Points, center, h.pt.metric, h.pt.keyDist),
		Center: h.pt.codec.Encode(center),
	}
}

// point decodes and validates query point qi of a dispatched batch against
// the node's shard.
func (h *typedHandler[P]) point(q wire.Query, qi int) (P, error) {
	qp, err := h.pt.codec.Decode(q.Points[qi])
	if err == nil && h.pt.compat != nil && h.shardLen > 0 {
		err = h.pt.compat(qp, h.first)
	}
	if err != nil {
		return qp, fmt.Errorf("query %d: %w", qi, err)
	}
	return qp, nil
}

// Direct answers one query point of a dispatch: the node's local top-ℓ
// below ceil straight from its index — the frontend merges the contacted
// nodes' lists and selects. Calls for different points and dispatches run
// concurrently; everything mutable here is call-local, and the Load-written
// shard and index are only read.
func (h *typedHandler[P]) Direct(q wire.Query, qi int, ceil keys.Key) ([]Item, error) {
	qp, err := h.point(q, qi)
	if err != nil {
		return nil, err
	}
	return h.topL(qp, q.L, ceil), nil
}

// ServeTypedNode runs one resident serving node for any served point type:
// it joins the frontend at coordAddr, receives its machine identity, builds
// its shard via shards, and then answers every dispatch until the frontend
// shuts the session down. It blocks for the lifetime of the session; a nil
// return means a clean shutdown. The node binds no listener and dials only
// the frontend.
//
// meshAddr is ignored: a node talks only to the frontend, so it listens on
// nothing. The argument is kept so existing callers still compile.
func ServeTypedNode[P any](pt PointType[P], coordAddr, meshAddr string, shards ShardProvider[P], opts NodeOptions) error {
	return tcp.ServeNodeObserved(coordAddr, opts.Metrics, &typedHandler[P]{pt: pt, shards: shards})
}

// Frontend is the client-facing endpoint of a TCP serving cluster: it
// seats the k resident nodes through one join handshake and serves remote
// clients through its epoch scheduler — up to FrontendOptions.Window
// queries in flight at once, optionally coalescing concurrently arriving
// single queries into batch queries. Nodes and clients
// dial the same address; a connection's first frame decides its role. The
// frontend is point-type agnostic — it learns the cluster's wire tag from
// the nodes' ready reports and rejects mismatched queries. Its methods
// (Serve, Close, Addr, EvictNode, Health, and Leader, kept only for
// existing callers) are documented on the aliased type.
type Frontend = tcp.Frontend

// FrontendOptions tunes the frontend's epoch scheduler: the pipelining
// Window, transparent server-side batching (ServerBatch, Linger; a
// coalesced batch holds at most 64 points), metric-index pruned dispatch
// (Pruner — pass the served PointType's Pruner()), and the optional Metrics
// registry and per-epoch Trace. The zero value is a pipelined, unbatched, unpruned,
// unobserved frontend; see the field documentation on the aliased type.
type FrontendOptions = tcp.FrontendOptions

// NewFrontendOptions starts the serving listener for a k-node cluster with
// an explicit epoch scheduler configuration (pipelining window, server-side
// batching). Every answer is exact and the Regress fold adds the seats'
// sums in ascending seat order, so a serving cluster replays
// deterministically for the same query stream.
//
// seed is ignored: the frontend has no leader, so nothing in a session
// depends on it. The argument is kept so existing callers still compile.
func NewFrontendOptions(addr string, k int, seed uint64, opts FrontendOptions) (*Frontend, error) {
	return tcp.NewFrontendOptions(addr, k, opts)
}

// RemoteCluster is a client handle on a TCP serving cluster. It satisfies
// the same query surface as the in-process Cluster — KNN, Classify, Regress
// and KNNBatch with identical signatures and exact results — but every call
// travels to the cluster's frontend, which answers it from the nodes' local
// top-ℓ lists; a KNNBatch ships its whole batch in one dispatch, so the
// per-query frame and syscall overhead is amortized across the batch.
//
// A RemoteCluster is safe for concurrent use, and its single connection is
// multiplexed: every query travels as a tagged frame, so any number of
// calls can be in flight at once and complete out of order. One client
// process can therefore saturate the frontend's whole pipelining window —
// issue queries from concurrent goroutines, or use KNNAsync to hold many
// outstanding without a goroutine per call. QueryStats report the dispatch
// cost: Rounds is the number of dispatch waves (1, or 2 for a pruned query
// that gathers) and Messages the per-point node contacts (also reported as
// Contacts) — for a query the frontend transparently coalesced into a
// shared batch, they describe that whole batch. Bytes, Survivors,
// Iterations and FellBack are 0: they describe the node↔node traffic and
// the selection of the paper's protocol, which runs only in-process, and
// Leader is 0: the frontend selects, and no seat leads.
type RemoteCluster[P any] struct {
	client *tcp.Client
	codec  wire.PointCodec[P]
}

// ClientOptions tunes a RemoteCluster's deadlines and churn handling: a
// per-query Timeout, the degraded-cluster RetryWait budget, and the
// optional Metrics registry. The zero value is no deadline, the default
// 500ms ride-out, and a private registry; a negative RetryWait turns every
// automatic retry off, degraded and transport alike. See the field
// documentation on the aliased type.
type ClientOptions = tcp.ClientOptions

// DialTypedClusterOptions connects to a serving cluster's frontend that
// serves pt's point type. The zero ClientOptions are the defaults.
func DialTypedClusterOptions[P any](pt PointType[P], addr string, opts ClientOptions) (*RemoteCluster[P], error) {
	c, err := tcp.DialFrontendOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	return &RemoteCluster[P]{client: c, codec: pt.codec}, nil
}

// do ships one batch and returns the validated reply.
func (rc *RemoteCluster[P]) do(op uint8, qs []P, l int) (wire.Reply, error) {
	pts := make([][]byte, len(qs))
	for i, q := range qs {
		pts[i] = rc.codec.Encode(q)
	}
	rep, err := rc.client.Do(wire.Query{Op: op, L: l, Tag: rc.codec.Tag, Points: pts})
	if err != nil {
		return wire.Reply{}, fmt.Errorf("distknn: %w", err)
	}
	if len(rep.Results) != len(qs) {
		return wire.Reply{}, fmt.Errorf("distknn: %d results for %d queries", len(rep.Results), len(qs))
	}
	return rep, nil
}

// remoteStats folds the batch-wide costs and one query's boundary into the
// QueryStats shape the in-process Cluster reports. Messages count node
// contacts, so that count is surfaced as Contacts too.
func remoteStats(rep wire.Reply, qr wire.QueryReply) *QueryStats {
	return &QueryStats{
		Rounds:   rep.Rounds,
		Messages: rep.Messages,
		Contacts: rep.Messages,
		Boundary: qr.Boundary,
	}
}

// KNN returns the exact ℓ nearest neighbors of q in ascending distance
// order, together with the query's dispatch cost on the remote cluster.
func (rc *RemoteCluster[P]) KNN(q P, l int) ([]Item, *QueryStats, error) {
	rep, err := rc.do(wire.OpKNN, []P{q}, l)
	if err != nil {
		return nil, nil, err
	}
	return rep.Results[0].Items, remoteStats(rep, rep.Results[0]), nil
}

// KNNHandle is one in-flight asynchronous KNN query (see KNNAsync).
type KNNHandle struct {
	done  chan struct{}
	items []Item
	stats *QueryStats
	err   error
}

// Done returns a channel closed when the query completes, for select loops.
func (h *KNNHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the query completes and returns its outcome. It may be
// called any number of times.
func (h *KNNHandle) Wait() ([]Item, *QueryStats, error) {
	<-h.done
	return h.items, h.stats, h.err
}

// KNNAsync starts a KNN query and returns immediately with a handle for
// collecting the answer. Each outstanding query is one tagged frame on the
// shared multiplexed connection, so a caller that keeps W handles in flight
// fills a frontend scheduling window of W by itself; replies complete out
// of order and results are bit-identical to the same queries issued
// serially.
func (rc *RemoteCluster[P]) KNNAsync(q P, l int) *KNNHandle {
	h := &KNNHandle{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.items, h.stats, h.err = rc.KNN(q, l)
	}()
	return h
}

// Classify returns the majority label among the ℓ nearest neighbors of q
// (ties broken toward the smallest label).
func (rc *RemoteCluster[P]) Classify(q P, l int) (float64, *QueryStats, error) {
	rep, err := rc.do(wire.OpClassify, []P{q}, l)
	if err != nil {
		return 0, nil, err
	}
	return rep.Results[0].Value, remoteStats(rep, rep.Results[0]), nil
}

// Regress returns the mean label of the ℓ nearest neighbors of q.
func (rc *RemoteCluster[P]) Regress(q P, l int) (float64, *QueryStats, error) {
	rep, err := rc.do(wire.OpRegress, []P{q}, l)
	if err != nil {
		return 0, nil, err
	}
	return rep.Results[0].Value, remoteStats(rep, rep.Results[0]), nil
}

// KNNBatch answers many queries with as few dispatches as possible: the
// whole batch travels in one dispatch (chunked at wire.MaxBatch) and every
// node answers all of it back to back — the socket analogue of the
// in-process KNNBatch, amortizing frames and syscalls across the batch. Per-query results are exact and identical to individual KNN
// calls; the returned QueryStats aggregates the whole batch.
func (rc *RemoteCluster[P]) KNNBatch(queries []P, l int) ([]BatchResult, *QueryStats, error) {
	out := make([]BatchResult, 0, len(queries))
	stats := &QueryStats{}
	for len(queries) > 0 {
		chunk := queries
		if len(chunk) > wire.MaxBatch {
			chunk = chunk[:wire.MaxBatch]
		}
		queries = queries[len(chunk):]
		rep, err := rc.do(wire.OpKNN, chunk, l)
		if err != nil {
			return nil, nil, err
		}
		for _, qr := range rep.Results {
			out = append(out, BatchResult{Neighbors: qr.Items, Boundary: qr.Boundary})
		}
		stats.Rounds += rep.Rounds
		stats.Messages += rep.Messages
		stats.Contacts += rep.Messages
	}
	return out, stats, nil
}

// Close releases the connection to the frontend. The remote cluster keeps
// serving other clients.
func (rc *RemoteCluster[P]) Close() error { return rc.client.Close() }

// LocalServer is a whole loopback serving deployment running in one
// process: a Frontend plus k resident nodes. Dial it with
// DialTypedClusterOptions on s.Addr(); EvictNode and Close are documented
// on the aliased type.
type LocalServer = tcp.LocalCluster

// ServeTypedLocalOptions starts a loopback TCP serving cluster for any
// served point type: a frontend configured by fopts (zero value = defaults)
// and k resident nodes, each holding the shard that shards(id, k) builds. It
// returns once every seat is filled and the cluster is ready to serve. The k
// in-process nodes share opts, so a NodeOptions.Metrics registry receives
// their node_* counters as cluster-wide totals.
//
// seed is ignored, as NewFrontendOptions's is; the argument is kept so
// existing callers still compile.
func ServeTypedLocalOptions[P any](pt PointType[P], k int, seed uint64, shards ShardProvider[P], opts NodeOptions, fopts FrontendOptions) (*LocalServer, error) {
	return tcp.ServeLocalOptions(k, fopts, opts.Metrics, func() tcp.Handler {
		return &typedHandler[P]{pt: pt, shards: shards}
	})
}
