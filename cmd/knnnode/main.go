// Command knnnode runs the distributed ℓ-NN pipeline over real TCP sockets.
// Every node generates its own shard of the synthetic workload from the
// shared seed, so no data files need distributing.
//
// Without -serve it is a one-shot cluster: a coordinator process performs
// rendezvous, and k node processes (one per machine) mesh up, elect a
// leader, answer a single query with Algorithm 2, and tear down.
//
// With -serve the deployment is a resident serving cluster: the coordinator
// becomes a long-lived frontend, the nodes mesh up once, elect a leader
// once, and then answer a stream of query batches — one BSP epoch per
// batch — dispatched by the frontend to remote clients (knnquery -connect,
// or the distknn.DialTypedCluster API). With -dim > 0
// the nodes hold d-dimensional vector shards indexed by k-d trees instead
// of the paper's scalar workload (-vmetric picks the served vector metric:
// l2, l1, linf or cosine). The frontend's epoch scheduler pipelines up to
// -window query epochs on the mesh concurrently, and with -server-batch it
// coalesces concurrently arriving single queries into lockstep batch epochs
// (flushed at 64 points or after -linger).
//
// With -anchor the nodes partition the same global dataset by a
// deterministic seeded k-center clustering instead of uniform ID blocks,
// and report tight centroid+radius summaries; a frontend started with
// -prune uses those summaries for metric-index pruned dispatch — every
// query, single-point or batched, KNN, Classify or Regress, contacts only
// the nodes whose shard ball can intersect its neighbor ball (a batch
// probes all its points in one shared wave, then each node receives just
// the sub-batch of points that admit it), with answers bit-identical to
// full scatter; -probes widens the bounding wave for overlapping clusters:
//
//	knnnode -serve -coordinator -addr 127.0.0.1:7100 -k 2 -seed 1 -prune
//	knnnode -serve -join 127.0.0.1:7100 -points 100000 -anchor
//	knnnode -serve -join 127.0.0.1:7100 -points 100000 -anchor
//	knnquery -connect 127.0.0.1:7100 -l 10
//
// Nodes spanning hosts listen on -mesh and may announce a different
// reachable address with -advertise (e.g. -mesh 0.0.0.0:7101 -advertise
// 10.0.0.5:7101); see docs/ARCHITECTURE.md for the port scheme.
//
// A serving cluster survives node churn: if a resident node dies, queries
// fail fast with a retryable "cluster degraded" error until a node takes
// the empty seat back — either a freshly started `knnnode -serve -join`
// (no extra flags; the frontend hands it the absent seat and it rebuilds
// the same shard from the shared seed) or the evicted process itself when
// started with -rejoin, which re-joins automatically whenever its session
// is lost. See the "Failure handling" section of docs/ARCHITECTURE.md.
//
// One-shot demo (three terminals):
//
//	knnnode -coordinator -addr 127.0.0.1:7100 -k 2 -seed 1
//	knnnode -join 127.0.0.1:7100 -points 100000 -l 10 -query 12345
//	knnnode -join 127.0.0.1:7100 -points 100000 -l 10 -query 12345
//
// Serving demo (three terminals plus any number of clients):
//
//	knnnode -serve -coordinator -addr 127.0.0.1:7100 -k 2 -seed 1
//	knnnode -serve -join 127.0.0.1:7100 -points 100000
//	knnnode -serve -join 127.0.0.1:7100 -points 100000
//	knnquery -connect 127.0.0.1:7100 -l 10
//
// The same, serving 8-dimensional vectors:
//
//	knnnode -serve -coordinator -addr 127.0.0.1:7100 -k 2 -seed 1
//	knnnode -serve -join 127.0.0.1:7100 -points 100000 -dim 8
//	knnnode -serve -join 127.0.0.1:7100 -points 100000 -dim 8
//	knnquery -connect 127.0.0.1:7100 -metric vector -dim 8 -l 10
//
// Or everything in one process:
//
//	knnnode -local -k 8 -points 100000 -l 10 -query 12345
//	knnnode -serve -local -k 8 -points 100000 -l 10 -queries 100
//	knnnode -serve -local -k 8 -points 100000 -dim 8 -queries 100 -batch 32
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"distknn"
	"distknn/internal/core"
	"distknn/internal/election"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/transport/tcp"
	"distknn/internal/xrand"
)

func main() {
	var (
		coordinator = flag.Bool("coordinator", false, "run the rendezvous coordinator (with -serve: the resident frontend)")
		addr        = flag.String("addr", "127.0.0.1:7100", "coordinator listen address")
		join        = flag.String("join", "", "coordinator address to join as a node")
		local       = flag.Bool("local", false, "run coordinator and all k nodes in this process")
		serve       = flag.Bool("serve", false, "resident serving cluster instead of one-shot")
		k           = flag.Int("k", 4, "cluster size (coordinator/local mode)")
		seed        = flag.Uint64("seed", 1, "shared cluster seed")
		perNode     = flag.Int("points", 1<<16, "points generated per node")
		dim         = flag.Int("dim", 0, "vector dimension of the served shards (0 = the paper's scalar workload)")
		l           = flag.Int("l", 10, "number of nearest neighbors")
		query       = flag.Uint64("query", 0, "query point (0 = derived from seed; one-shot and -serve -local)")
		queries     = flag.Int("queries", 100, "queries the -serve -local demo issues before exiting")
		batch       = flag.Int("batch", 1, "queries per dispatched batch in the -serve -local demo")
		meshAddr    = flag.String("mesh", "127.0.0.1:0", "node mesh listen address")
		advertise   = flag.String("advertise", "", "reachable mesh address announced to peers (default: the -mesh listener's own address)")
		rejoin      = flag.Bool("rejoin", false, "with -serve -join: re-join the session automatically whenever it is lost (eviction, frontend restart)")
		window      = flag.Int("window", 0, "with -serve -coordinator: query epochs pipelined in flight at once (0 = default 8, 1 = serialized)")
		serverBatch = flag.Bool("server-batch", false, "with -serve -coordinator: coalesce concurrently arriving single queries into lockstep batch epochs")
		linger      = flag.Duration("linger", 0, "with -serve -coordinator -server-batch: max wait for a partial coalesced batch (0 = default 500µs)")
		prune       = flag.Bool("prune", false, "with -serve -coordinator: metric-index pruned dispatch — every query (single or batched, KNN/Classify/Regress) contacts only the nodes whose shard ball can hold a neighbor (answers stay bit-identical; pair with -anchor nodes for tight balls)")
		probes      = flag.Int("probes", 0, "with -serve -coordinator -prune: nearest shards each point probes for its bound (0 = default 1; more tightens the bound on overlapping clusters)")
		anchor      = flag.Bool("anchor", false, "with -serve -join or -serve -local: anchor-clustered shards (deterministic k-center partition of the same global dataset) instead of uniform ID blocks")
		vmetric     = flag.String("vmetric", "l2", "vector metric served when -dim > 0: l2|l1|linf|cosine")
		admin       = flag.String("admin", "", "with -serve: HTTP admin address — the frontend serves /metrics, /healthz, /trace/recent and /debug/pprof; a node serves its own /metrics")
	)
	flag.Parse()

	q := *query
	if q == 0 {
		q = xrand.NewStream(*seed, 1<<40).Uint64N(points.PaperDomain)
	}
	opts := distknn.NodeOptions{Advertise: *advertise}
	vectorPT := func() distknn.PointType[distknn.Vector] {
		switch *vmetric {
		case "l2":
			return distknn.VectorPoints()
		case "l1":
			return distknn.L1Points()
		case "linf":
			return distknn.LInfPoints()
		case "cosine":
			return distknn.CosinePoints()
		default:
			fatalf("unknown vector metric %q (want l2|l1|linf|cosine)", *vmetric)
			panic("unreachable")
		}
	}

	switch {
	case *serve && *coordinator:
		fopts := distknn.FrontendOptions{
			Window:      *window,
			ServerBatch: *serverBatch,
			Linger:      *linger,
		}
		if *admin != "" {
			fopts.Metrics = distknn.NewMetrics()
			fopts.Trace = distknn.NewTracer(0)
		}
		if *prune {
			// The pruner must match the point type the nodes will declare;
			// a mismatched one fails its distance computations and the
			// frontend silently serves full scatter, so answers stay right
			// either way. Cosine refuses a pruner entirely (no triangle
			// inequality) — -prune then serves plain full scatter.
			if *dim > 0 {
				fopts.Pruner = vectorPT().Pruner()
			} else {
				fopts.Pruner = distknn.ScalarPoints().Pruner()
			}
			fopts.Probes = *probes
		}
		fe, err := distknn.NewFrontendOptions(*addr, *k, *seed, fopts)
		if err != nil {
			fatalf("%v", err)
		}
		if *admin != "" {
			adm, err := distknn.ServeAdmin(*admin, distknn.AdminOptions{
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
		fmt.Printf("serving frontend on %s waiting for %d nodes (seed=%d)\n", fe.Addr(), *k, *seed)
		if err := fe.Serve(); err != nil {
			fatalf("%v", err)
		}
	case *serve && *join != "":
		if *admin != "" {
			opts.Metrics = distknn.NewMetrics()
			adm, err := distknn.ServeAdmin(*admin, distknn.AdminOptions{Metrics: opts.Metrics})
			if err != nil {
				fatalf("admin endpoint: %v", err)
			}
			defer adm.Close()
			fmt.Printf("admin endpoint on http://%s/metrics\n", adm.Addr())
		}
		serveSession := func() error {
			if *dim > 0 {
				shards := distknn.UniformVectorShards(*seed, *perNode, *dim)
				if *anchor {
					shards = distknn.AnchorVectorShards(*seed, *perNode, *dim)
				}
				fmt.Printf("resident vector node joining %s (%d %d-dim points/node, metric=%s, anchor=%v)\n",
					*join, *perNode, *dim, *vmetric, *anchor)
				return distknn.ServeTypedNode(vectorPT(), *join, *meshAddr, shards, opts)
			}
			shards := distknn.PaperShards(*seed, *perNode)
			if *anchor {
				shards = distknn.AnchorShards(*seed, *perNode)
			}
			fmt.Printf("resident node joining %s (%d points/node, anchor=%v)\n", *join, *perNode, *anchor)
			return distknn.ServeTypedNode(distknn.ScalarPoints(), *join, *meshAddr, shards, opts)
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
			if !*rejoin || !recoverable {
				fatalf("%v", err)
			}
			// The seat is recoverable: a fresh registration lands in the
			// absent slot and the session resumes where it is.
			fmt.Printf("session lost (%v); re-joining\n", err)
			time.Sleep(500 * time.Millisecond)
		}
		fmt.Println("node shut down cleanly")
	case *serve && *local:
		serveLocalDemo(demoConfig{
			k: *k, seed: *seed, perNode: *perNode, dim: *dim, l: *l,
			queries: *queries, batch: *batch,
			prune: *prune, anchor: *anchor, vectorPT: vectorPT,
		})
	case *coordinator:
		c, err := tcp.NewCoordinator(*addr, *k, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		defer c.Close()
		fmt.Printf("coordinator on %s waiting for %d nodes (seed=%d)\n", c.Addr(), *k, *seed)
		if err := c.Wait(); err != nil {
			fatalf("%v", err)
		}
		fmt.Println("all nodes configured; coordinator done")
	case *join != "":
		met, err := tcp.RunNode(*join, *meshAddr, nodeProgram(*seed, *perNode, *l, q, true))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("node done: rounds=%d messages=%d bytes=%d\n", met.Rounds, met.Messages, met.Bytes)
	case *local:
		fmt.Printf("local cluster: k=%d, %d points/node, l=%d, query=%d\n", *k, *perNode, *l, q)
		metrics, errs, err := tcp.RunLocal(*k, *seed, nodeProgram(*seed, *perNode, *l, q, false))
		if err != nil {
			fatalf("%v", err)
		}
		for i, e := range errs {
			if e != nil {
				fatalf("node %d: %v", i, e)
			}
		}
		var msgs, bytes int64
		rounds := 0
		for _, m := range metrics {
			msgs += m.Messages
			bytes += m.Bytes
			if m.Rounds > rounds {
				rounds = m.Rounds
			}
		}
		fmt.Printf("cluster totals: rounds=%d messages=%d traffic=%dB\n", rounds, msgs, bytes)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// demoConfig carries the -serve -local knobs.
type demoConfig struct {
	k               int
	seed            uint64
	perNode, dim, l int
	queries, batch  int
	prune, anchor   bool
	vectorPT        func() distknn.PointType[distknn.Vector]
}

// serveLocalDemo runs the whole serving deployment in one process —
// frontend, k resident nodes, and a client — answers `queries` queries over
// the standing mesh (in dispatched batches of `batch`), and prints the
// aggregate cost. With -prune (and batch 1) single-point queries travel
// through the metric-index pruned dispatch; -anchor partitions the same
// global dataset by the deterministic k-center clustering so the shard
// balls are tight.
func serveLocalDemo(cfg demoConfig) {
	if cfg.queries < 1 {
		cfg.queries = 1
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	kind := "scalar"
	if cfg.dim > 0 {
		kind = fmt.Sprintf("%d-dim vector", cfg.dim)
	}
	fmt.Printf("local serving cluster: k=%d, %d %s points/node, l=%d, %d queries in batches of %d (prune=%v anchor=%v)\n",
		cfg.k, cfg.perNode, kind, cfg.l, cfg.queries, cfg.batch, cfg.prune, cfg.anchor)
	if cfg.dim > 0 {
		pt := cfg.vectorPT()
		shards := distknn.UniformVectorShards(cfg.seed, cfg.perNode, cfg.dim)
		if cfg.anchor {
			shards = distknn.AnchorVectorShards(cfg.seed, cfg.perNode, cfg.dim)
		}
		fopts := distknn.FrontendOptions{}
		if cfg.prune {
			fopts.Pruner = pt.Pruner()
		}
		srv, err := distknn.ServeTypedLocalOptions(pt, cfg.k, cfg.seed, shards, distknn.NodeOptions{}, fopts)
		if err != nil {
			fatalf("%v", err)
		}
		rc, err := distknn.DialTypedCluster(pt, srv.Addr())
		if err != nil {
			srv.Close()
			fatalf("%v", err)
		}
		gen := func(i int) distknn.Vector {
			rng := xrand.NewStream(cfg.seed, 1<<40+uint64(i))
			v := make(distknn.Vector, cfg.dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			return v
		}
		runDemo(srv, rc, gen, cfg.l, cfg.queries, cfg.batch, func(d uint64) string {
			return fmt.Sprintf("%.6f", keys.DecodeFloat(d))
		})
	} else {
		shards := distknn.PaperShards(cfg.seed, cfg.perNode)
		if cfg.anchor {
			shards = distknn.AnchorShards(cfg.seed, cfg.perNode)
		}
		fopts := distknn.FrontendOptions{}
		if cfg.prune {
			fopts.Pruner = distknn.ScalarPoints().Pruner()
		}
		srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), cfg.k, cfg.seed, shards, distknn.NodeOptions{}, fopts)
		if err != nil {
			fatalf("%v", err)
		}
		rc, err := distknn.DialTypedCluster(distknn.ScalarPoints(), srv.Addr())
		if err != nil {
			srv.Close()
			fatalf("%v", err)
		}
		gen := func(i int) distknn.Scalar {
			return distknn.Scalar(xrand.NewStream(cfg.seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
		}
		runDemo(srv, rc, gen, cfg.l, cfg.queries, cfg.batch, func(d uint64) string {
			return fmt.Sprintf("%d", d)
		})
	}
}

// runDemo drives the -serve -local query stream for either point type.
func runDemo[P any](srv *distknn.LocalServer, rc *distknn.RemoteCluster[P], gen func(i int) P, l, queries, batch int, distStr func(uint64) string) {
	var rounds, msgs int64
	epochs := 0
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
		epochs++
		lastBoundary = res[len(res)-1].Boundary
	}
	rc.Close()
	if err := srv.Close(); err != nil {
		fatalf("shutdown: %v", err)
	}
	fmt.Printf("answered %d queries in %d epochs on one mesh: leader=machine %d, mean rounds/query=%.1f, mean messages/query=%.1f\n",
		queries, epochs, srv.Leader(), float64(rounds)/float64(queries), float64(msgs)/float64(queries))
	fmt.Printf("last query: boundary-dist=%s (election ran once, in the setup epoch)\n", distStr(lastBoundary.Dist))
}

// nodeProgram builds the per-node behaviour: generate the local shard from
// the shared seed, elect a leader, run Algorithm 2, classify, and (on the
// leader) print the answer.
func nodeProgram(seed uint64, perNode, l int, q uint64, verbose bool) kmachine.Program {
	return func(m kmachine.Env) error {
		rng := xrand.NewStream(seed, uint64(m.ID()))
		set := points.GenUniformScalars(rng, perNode, points.PaperDomain)
		for j := range set.IDs {
			set.IDs[j] = uint64(m.ID())*uint64(perNode) + uint64(j) + 1
		}
		leader, err := election.MinGUID(m)
		if err != nil {
			return err
		}
		res, err := core.KNN(m, core.Config{Leader: leader, L: l}, set.TopLItems(points.Scalar(q), l))
		if err != nil {
			return err
		}
		label, err := core.Classify(m, leader, res.Winners)
		if err != nil {
			return err
		}
		if verbose || m.ID() == leader {
			fmt.Printf("machine %d: leader=%d boundary-dist=%d local-winners=%d label=%g\n",
				m.ID(), leader, res.Boundary.Dist, len(res.Winners), label)
		}
		return nil
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knnnode: "+format+"\n", args...)
	os.Exit(1)
}
