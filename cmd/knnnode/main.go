// Command knnnode runs the distributed ℓ-NN pipeline over real TCP sockets
// as a resident serving cluster. Every node generates its own shard of the
// synthetic workload from the shared seed, so no data files need
// distributing.
//
// The coordinator (-coordinator) is a long-lived frontend; the nodes (-join)
// take a seat once and then answer a stream of dispatches from the
// frontend, which answers remote clients (knnquery -connect, or the
// distknn.DialTypedClusterOptions API): each node returns its shard's local
// top-ℓ for the points it is sent, and the frontend selects. Nodes dial only
// the frontend and bind no listener. With -dim > 0 the nodes hold
// d-dimensional vector shards indexed by k-d trees instead of the paper's
// scalar workload (-vmetric picks the served vector metric: l2, l1, linf or
// cosine). The frontend's epoch scheduler pipelines up to -window queries
// concurrently, and with -server-batch it coalesces single queries that
// arrive while the window is full into batch queries (each run as soon as
// a window slot frees, or sealed at 64 points).
//
// With -anchor the nodes partition the same global dataset by a
// deterministic seeded k-center clustering instead of uniform ID blocks,
// and report tight centroid+radius summaries; a frontend started with
// -prune uses those summaries for metric-index pruned dispatch — every
// query, single-point or batched, KNN, Classify or Regress, contacts only
// the nodes whose shard ball can intersect its neighbor ball (a batch
// probes all its points in one shared wave, then each node receives just
// the sub-batch of points that admit it), with answers bit-identical to
// full scatter:
//
//	knnnode -coordinator -addr 127.0.0.1:7100 -k 2 -prune
//	knnnode -join 127.0.0.1:7100 -points 100000 -anchor
//	knnnode -join 127.0.0.1:7100 -points 100000 -anchor
//	knnquery -connect 127.0.0.1:7100 -l 10
//
// Nodes spanning hosts need only reach the coordinator's -addr; see
// docs/ARCHITECTURE.md for the port scheme.
//
// A serving cluster survives node churn: if a resident node dies, queries
// fail fast with a retryable "cluster degraded" error until a node takes
// the empty seat back — either a freshly started `knnnode -join` (no extra
// flags; the frontend hands it the absent seat and it rebuilds the same
// shard from the shared seed) or the evicted process itself when started
// with -rejoin, which re-joins automatically whenever its session is lost.
// See the "Failure handling" section of docs/ARCHITECTURE.md.
//
// Serving demo (three terminals plus any number of clients):
//
//	knnnode -coordinator -addr 127.0.0.1:7100 -k 2
//	knnnode -join 127.0.0.1:7100 -points 100000
//	knnnode -join 127.0.0.1:7100 -points 100000
//	knnquery -connect 127.0.0.1:7100 -l 10
//
// The same, serving 8-dimensional vectors:
//
//	knnnode -coordinator -addr 127.0.0.1:7100 -k 2
//	knnnode -join 127.0.0.1:7100 -points 100000 -dim 8
//	knnnode -join 127.0.0.1:7100 -points 100000 -dim 8
//	knnquery -connect 127.0.0.1:7100 -metric vector -dim 8 -l 10
//
// Or everything in one process:
//
//	knnnode -local -k 8 -points 100000 -l 10 -queries 100
//	knnnode -local -k 8 -points 100000 -dim 8 -queries 100 -batch 32
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"distknn"
	"distknn/internal/keys"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// options holds knnnode's command line.
type options struct {
	coordinator, local, rejoin, serverBatch, prune, anchor bool
	addr, join, vmetric, admin                             string
	k, perNode, dim, l, queries, batch, window             int
	seed                                                   uint64
}

// defineFlags declares every knnnode flag on fs; cmd/knnnode's doc test
// checks the command lines in the docs against this set.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.BoolVar(&o.coordinator, "coordinator", false, "run the resident frontend: rendezvous for the k nodes, then the client-facing query endpoint")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7100", "coordinator listen address")
	fs.StringVar(&o.join, "join", "", "coordinator address to join as a resident node")
	fs.BoolVar(&o.local, "local", false, "run the frontend, all k nodes and a demo client in this process")
	fs.IntVar(&o.k, "k", 4, "cluster size (coordinator/local mode)")
	fs.Uint64Var(&o.seed, "seed", 1, "shared cluster seed: generates each node's shard with -join or -local (ignored by -coordinator, which holds no data)")
	fs.IntVar(&o.perNode, "points", 1<<16, "points generated per node")
	fs.IntVar(&o.dim, "dim", 0, "vector dimension of the served shards (0 = the paper's scalar workload)")
	fs.IntVar(&o.l, "l", 10, "number of nearest neighbors the -local demo asks for")
	fs.IntVar(&o.queries, "queries", 100, "queries the -local demo issues before exiting")
	fs.IntVar(&o.batch, "batch", 1, "queries per dispatched batch in the -local demo")
	fs.BoolVar(&o.rejoin, "rejoin", false, "with -join: re-join the session automatically whenever it is lost (eviction, frontend restart)")
	fs.IntVar(&o.window, "window", 0, "with -coordinator: queries pipelined in flight at once (0 = default 8, 1 = serialized)")
	fs.BoolVar(&o.serverBatch, "server-batch", false, "with -coordinator: coalesce concurrently arriving single queries into batch queries")
	fs.BoolVar(&o.prune, "prune", false, "with -coordinator or -local: metric-index pruned dispatch — every query (single or batched, KNN/Classify/Regress) contacts only the nodes whose shard ball can hold a neighbor (answers stay bit-identical; pair with -anchor nodes for tight balls)")
	fs.BoolVar(&o.anchor, "anchor", false, "with -join or -local: anchor-clustered shards (deterministic k-center partition of the same global dataset) instead of uniform ID blocks")
	fs.StringVar(&o.vmetric, "vmetric", "l2", "vector metric served when -dim > 0: l2|l1|linf|cosine")
	fs.StringVar(&o.admin, "admin", "", "HTTP admin address — the frontend serves /metrics, /healthz, /trace/recent and /debug/pprof; a node serves its own /metrics")
	return o
}

// vectorPT resolves -vmetric to the served vector point type.
func (o *options) vectorPT() distknn.PointType[distknn.Vector] {
	switch o.vmetric {
	case "l2":
		return distknn.VectorPoints()
	case "l1":
		return distknn.L1Points()
	case "linf":
		return distknn.LInfPoints()
	case "cosine":
		return distknn.CosinePoints()
	default:
		fatalf("unknown vector metric %q (want l2|l1|linf|cosine)", o.vmetric)
		panic("unreachable")
	}
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case o.coordinator:
		fopts := distknn.FrontendOptions{
			Window:      o.window,
			ServerBatch: o.serverBatch,
		}
		if o.admin != "" {
			fopts.Metrics = distknn.NewMetrics()
			fopts.Trace = distknn.NewTracer(0)
		}
		if o.prune {
			// The pruner must match the point type the nodes will declare;
			// a mismatched one fails its distance computations and the
			// frontend silently serves full scatter, so answers stay right
			// either way. Cosine refuses a pruner entirely (no triangle
			// inequality) — -prune then serves plain full scatter.
			if o.dim > 0 {
				fopts.Pruner = o.vectorPT().Pruner()
			} else {
				fopts.Pruner = distknn.ScalarPoints().Pruner()
			}
		}
		fe, err := distknn.NewFrontendOptions(o.addr, o.k, o.seed, fopts)
		if err != nil {
			fatalf("%v", err)
		}
		if o.admin != "" {
			adm, err := distknn.ServeAdmin(o.admin, distknn.AdminOptions{
				Metrics: fopts.Metrics,
				Trace:   fopts.Trace,
				Health:  fe.Health,
			})
			if err != nil {
				fatalf("admin endpoint: %v", err)
			}
			defer adm.Close()
			fmt.Printf("admin endpoint on http://%s/metrics\n", adm.Addr())
		}
		fmt.Printf("serving frontend on %s waiting for %d nodes\n", fe.Addr(), o.k)
		if err := fe.Serve(); err != nil {
			fatalf("%v", err)
		}
	case o.join != "":
		var opts distknn.NodeOptions
		if o.admin != "" {
			opts.Metrics = distknn.NewMetrics()
			adm, err := distknn.ServeAdmin(o.admin, distknn.AdminOptions{Metrics: opts.Metrics})
			if err != nil {
				fatalf("admin endpoint: %v", err)
			}
			defer adm.Close()
			fmt.Printf("admin endpoint on http://%s/metrics\n", adm.Addr())
		}
		serveSession := func() error {
			if o.dim > 0 {
				shards := distknn.UniformVectorShards(o.seed, o.perNode, o.dim)
				if o.anchor {
					shards = distknn.AnchorVectorShards(o.seed, o.perNode, o.dim)
				}
				fmt.Printf("resident vector node joining %s (%d %d-dim points/node, metric=%s, anchor=%v)\n",
					o.join, o.perNode, o.dim, o.vmetric, o.anchor)
				return distknn.ServeTypedNode(o.vectorPT(), o.join, "", shards, opts)
			}
			shards := distknn.PaperShards(o.seed, o.perNode)
			if o.anchor {
				shards = distknn.AnchorShards(o.seed, o.perNode)
			}
			fmt.Printf("resident node joining %s (%d points/node, anchor=%v)\n", o.join, o.perNode, o.anchor)
			return distknn.ServeTypedNode(distknn.ScalarPoints(), o.join, "", shards, opts)
		}
		for attempt := 0; ; attempt++ {
			err := serveSession()
			if err == nil {
				break
			}
			recoverable := errors.Is(err, distknn.ErrSessionLost)
			if !recoverable && attempt > 0 {
				// Once a session has been held and lost, a network failure
				// while re-joining usually means the frontend is restarting
				// too — keep trying. A first-attempt dial failure is still
				// fatal, so a bad -join address surfaces immediately.
				var nerr net.Error
				recoverable = errors.As(err, &nerr)
			}
			if !o.rejoin || !recoverable {
				fatalf("%v", err)
			}
			// The seat is recoverable: a fresh registration lands in the
			// absent slot and the session resumes where it is.
			fmt.Printf("session lost (%v); re-joining\n", err)
			time.Sleep(500 * time.Millisecond)
		}
		fmt.Println("node shut down cleanly")
	case o.local:
		serveLocalDemo(o)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// serveLocalDemo runs the whole serving deployment in one process —
// frontend, k resident nodes, and a client — answers -queries queries (in
// dispatched batches of -batch), and prints the aggregate cost. With -prune the queries travel through the metric-index
// pruned dispatch; -anchor partitions the same global dataset by the
// deterministic k-center clustering so the shard balls are tight.
func serveLocalDemo(o *options) {
	queries, batch := max(o.queries, 1), max(o.batch, 1)
	kind := "scalar"
	if o.dim > 0 {
		kind = fmt.Sprintf("%d-dim vector", o.dim)
	}
	fmt.Printf("local serving cluster: k=%d, %d %s points/node, l=%d, %d queries in batches of %d (prune=%v anchor=%v)\n",
		o.k, o.perNode, kind, o.l, queries, batch, o.prune, o.anchor)
	if o.dim > 0 {
		pt := o.vectorPT()
		shards := distknn.UniformVectorShards(o.seed, o.perNode, o.dim)
		if o.anchor {
			shards = distknn.AnchorVectorShards(o.seed, o.perNode, o.dim)
		}
		fopts := distknn.FrontendOptions{}
		if o.prune {
			fopts.Pruner = pt.Pruner()
		}
		srv, err := distknn.ServeTypedLocalOptions(pt, o.k, o.seed, shards, distknn.NodeOptions{}, fopts)
		if err != nil {
			fatalf("%v", err)
		}
		rc, err := distknn.DialTypedClusterOptions(pt, srv.Addr(), distknn.ClientOptions{})
		if err != nil {
			srv.Close()
			fatalf("%v", err)
		}
		gen := func(i int) distknn.Vector {
			rng := xrand.NewStream(o.seed, 1<<40+uint64(i))
			v := make(distknn.Vector, o.dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			return v
		}
		runDemo(srv, rc, gen, o.l, queries, batch, func(d uint64) string {
			return fmt.Sprintf("%.6f", keys.DecodeFloat(d))
		})
	} else {
		shards := distknn.PaperShards(o.seed, o.perNode)
		if o.anchor {
			shards = distknn.AnchorShards(o.seed, o.perNode)
		}
		fopts := distknn.FrontendOptions{}
		if o.prune {
			fopts.Pruner = distknn.ScalarPoints().Pruner()
		}
		srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), o.k, o.seed, shards, distknn.NodeOptions{}, fopts)
		if err != nil {
			fatalf("%v", err)
		}
		rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{})
		if err != nil {
			srv.Close()
			fatalf("%v", err)
		}
		gen := func(i int) distknn.Scalar {
			return distknn.Scalar(xrand.NewStream(o.seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
		}
		runDemo(srv, rc, gen, o.l, queries, batch, func(d uint64) string {
			return fmt.Sprintf("%d", d)
		})
	}
}

// runDemo drives the -local query stream for either point type.
func runDemo[P any](srv *distknn.LocalServer, rc *distknn.RemoteCluster[P], gen func(i int) P, l, queries, batch int, distStr func(uint64) string) {
	var rounds, msgs int64
	dispatches := 0
	var lastBoundary distknn.Key
	for i := 0; i < queries; i += batch {
		n := batch
		if i+n > queries {
			n = queries - i
		}
		qs := make([]P, n)
		for j := range qs {
			qs[j] = gen(i + j)
		}
		res, stats, err := rc.KNNBatch(qs, l)
		if err != nil {
			fatalf("batch at query %d: %v", i, err)
		}
		rounds += int64(stats.Rounds)
		msgs += stats.Messages
		dispatches++
		lastBoundary = res[len(res)-1].Boundary
	}
	rc.Close()
	if err := srv.Close(); err != nil {
		fatalf("shutdown: %v", err)
	}
	fmt.Printf("answered %d queries in %d dispatches: mean waves/query=%.1f, mean node contacts/query=%.1f\n",
		queries, dispatches, float64(rounds)/float64(queries), float64(msgs)/float64(queries))
	fmt.Printf("last query: boundary-dist=%s\n", distStr(lastBoundary.Dist))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knnnode: "+format+"\n", args...)
	os.Exit(1)
}
