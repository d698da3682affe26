// Command knnquery builds a synthetic distributed dataset and answers one
// ℓ-NN query with any of the implemented algorithms, printing the neighbors
// and the distributed cost. With -compare it runs every algorithm on the
// same query and tabulates their costs side by side. With -serve it keeps
// the cluster resident and fires a stream of queries from -concurrency
// goroutines, reporting sustained QPS and latency percentiles — the
// serving workload the persistent runtime exists for. With -batch n > 1
// the stream travels as KNNBatch batches of n instead of single queries,
// amortizing per-query overhead (and, against a TCP cluster, frames,
// syscalls and BSP epochs).
//
// With -connect it skips building anything and becomes a remote client of a
// TCP serving cluster (started with knnnode): one query by default,
// the -serve throughput driver, or -batch batched dispatch — for scalar
// clusters and, with -metric vector -dim d, vector clusters (-metric also
// accepts l1, linf and cosine to match a cluster served with knnnode
// -vmetric).
//
// Examples:
//
//	knnquery -n 100000 -k 16 -l 10
//	knnquery -n 100000 -k 16 -l 10 -algo simple
//	knnquery -n 65536 -k 32 -l 256 -compare
//	knnquery -metric vector -dim 8 -n 10000 -l 5
//	knnquery -n 100000 -k 16 -l 10 -serve -concurrency 8 -queries 5000
//	knnquery -n 100000 -k 16 -l 10 -queries 5000 -batch 64
//	knnquery -connect 127.0.0.1:7100 -l 10
//	knnquery -connect 127.0.0.1:7100 -l 10 -serve -queries 1000
//	knnquery -connect 127.0.0.1:7100 -l 10 -queries 1000 -batch 32
//	knnquery -connect 127.0.0.1:7100 -metric vector -dim 8 -l 10
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"distknn"
	"distknn/internal/bench"
	"distknn/internal/keys"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

var algoByName = map[string]distknn.Algorithm{
	"alg2":        distknn.Alg2,
	"direct":      distknn.Direct,
	"simple":      distknn.Simple,
	"saukas-song": distknn.SaukasSong,
	"binsearch":   distknn.BinSearch,
}

// options holds knnquery's command line.
type options struct {
	n, k, l, dim, bandwidth, show, workers, queries, batchSize int
	seed                                                       uint64
	algoName, metric, connect, admin                           string
	compare, serve                                             bool
	timeout                                                    time.Duration
}

// defineFlags declares every knnquery flag on fs; cmd/knnquery's doc test
// checks the command lines in the docs against this set.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.n, "n", 1<<16, "total number of points")
	fs.IntVar(&o.k, "k", 8, "number of machines")
	fs.IntVar(&o.l, "l", 10, "number of nearest neighbors")
	fs.Uint64Var(&o.seed, "seed", 1, "dataset and protocol seed")
	fs.StringVar(&o.algoName, "algo", "alg2", "algorithm: alg2|direct|simple|saukas-song|binsearch")
	fs.StringVar(&o.metric, "metric", "scalar", "point type: scalar|vector; with -connect also l1|linf|cosine")
	fs.IntVar(&o.dim, "dim", 4, "vector dimension (for -metric vector)")
	fs.IntVar(&o.bandwidth, "bandwidth", 0, "link bandwidth in bytes/round (0 = 64)")
	fs.BoolVar(&o.compare, "compare", false, "run every algorithm and compare costs")
	fs.IntVar(&o.show, "show", 10, "how many neighbors to print")
	fs.BoolVar(&o.serve, "serve", false, "throughput mode: stream queries at the resident cluster and report QPS")
	fs.IntVar(&o.workers, "concurrency", runtime.GOMAXPROCS(0), "client goroutines in -serve mode")
	fs.IntVar(&o.queries, "queries", 2000, "total queries in -serve and -batch modes")
	fs.IntVar(&o.batchSize, "batch", 1, "queries per KNNBatch dispatch (>1 switches to serial batched mode)")
	fs.StringVar(&o.connect, "connect", "", "frontend address of a remote TCP serving cluster (see knnnode); query it instead of building a local one")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-query deadline against a remote cluster (0 = none); churn-degraded queries are retried for up to 500ms either way")
	fs.StringVar(&o.admin, "admin", "", "with -connect: serve the client's runtime metrics on this HTTP address (/metrics, /debug/pprof)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	if o.compare && (o.serve || o.batchSize > 1) {
		fatalf("-compare is mutually exclusive with -serve and -batch")
	}
	if o.serve && o.batchSize > 1 {
		fatalf("-serve streams single queries; use -batch without -serve for batched dispatch")
	}
	algo, ok := algoByName[o.algoName]
	if !ok {
		fatalf("unknown algorithm %q", o.algoName)
	}
	rng := xrand.New(o.seed)

	genScalar := func(rng *rand.Rand) distknn.Scalar {
		return distknn.Scalar(rng.Uint64N(points.PaperDomain))
	}
	dims := o.dim
	genVector := func(rng *rand.Rand) distknn.Vector {
		v := make(distknn.Vector, dims)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	scalarDist := func(key keys.Key) string { return fmt.Sprintf("%d", key.Dist) }
	vectorDist := func(key keys.Key) string { return fmt.Sprintf("%.6f", keys.DecodeFloat(key.Dist)) }

	if o.connect != "" {
		if o.compare {
			fatalf("-compare needs a local cluster; it cannot be combined with -connect")
		}
		copts := distknn.ClientOptions{QueryTimeout: o.timeout}
		if o.admin != "" {
			reg := distknn.NewMetrics()
			copts.Metrics = reg
			adm, err := distknn.ServeAdmin(o.admin, distknn.AdminOptions{Metrics: reg})
			if err != nil {
				fatalf("admin endpoint: %v", err)
			}
			defer adm.Close()
			fmt.Printf("client admin endpoint on http://%s/metrics\n", adm.Addr())
		}
		switch o.metric {
		case "scalar":
			rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), o.connect, copts)
			if err != nil {
				fatalf("%v", err)
			}
			defer rc.Close()
			fmt.Printf("remote scalar cluster at %s; l=%d\n\n", o.connect, o.l)
			drive(rc, genScalar, scalarDist, o.l, o.queries, o.workers, o.batchSize, o.serve, o.show, o.seed, rng)
		case "vector", "l1", "linf", "cosine":
			pt := distknn.VectorPoints()
			switch o.metric {
			case "l1":
				pt = distknn.L1Points()
			case "linf":
				pt = distknn.LInfPoints()
			case "cosine":
				pt = distknn.CosinePoints()
			}
			rc, err := distknn.DialTypedClusterOptions(pt, o.connect, copts)
			if err != nil {
				fatalf("%v", err)
			}
			defer rc.Close()
			fmt.Printf("remote %s cluster at %s; dim=%d l=%d\n\n", o.metric, o.connect, dims, o.l)
			drive(rc, genVector, vectorDist, o.l, o.queries, o.workers, o.batchSize, o.serve, o.show, o.seed, rng)
		default:
			fatalf("unknown metric %q", o.metric)
		}
		return
	}

	switch o.metric {
	case "scalar":
		values := make([]uint64, o.n)
		labels := make([]float64, o.n)
		for i := range values {
			values[i] = rng.Uint64N(points.PaperDomain)
			labels[i] = float64(i % 4)
		}
		q := distknn.Scalar(rng.Uint64N(points.PaperDomain))
		fmt.Printf("dataset: %d scalar points on %d machines; query=%d l=%d\n\n", o.n, o.k, uint64(q), o.l)
		if o.compare {
			compareAll(values, labels, q, o.k, o.l, o.seed, o.bandwidth)
			return
		}
		c, err := distknn.NewScalarCluster(values, labels, distknn.Options{
			Machines: o.k, Seed: o.seed, Algorithm: algo, BandwidthBytes: o.bandwidth,
		})
		if err != nil {
			fatalf("%v", err)
		}
		defer c.Close()
		drive(c, genScalar, scalarDist, o.l, o.queries, o.workers, o.batchSize, o.serve, o.show, o.seed, rng)
	case "vector":
		vecs := make([]distknn.Vector, o.n)
		labels := make([]float64, o.n)
		for i := range vecs {
			vecs[i] = genVector(rng)
			labels[i] = float64(i % 4)
		}
		fmt.Printf("dataset: %d %d-dim points on %d machines; l=%d\n\n", o.n, dims, o.k, o.l)
		c, err := distknn.NewVectorCluster(vecs, labels, distknn.Options{
			Machines: o.k, Seed: o.seed, Algorithm: algo, BandwidthBytes: o.bandwidth,
		})
		if err != nil {
			fatalf("%v", err)
		}
		defer c.Close()
		drive(c, genVector, vectorDist, o.l, o.queries, o.workers, o.batchSize, o.serve, o.show, o.seed, rng)
	default:
		fatalf("unknown metric %q", o.metric)
	}
}

// queryCluster is the full driver surface knnquery needs; both the
// in-process *distknn.Cluster and the remote *distknn.RemoteCluster
// satisfy it.
type queryCluster[P any] interface {
	bench.Queryable[P]
	KNNBatch(qs []P, l int) ([]distknn.BatchResult, *distknn.QueryStats, error)
	Leader() int
}

// drive routes one cluster handle into the selected mode: a single printed
// query, the -serve concurrency driver, or -batch batched dispatch.
func drive[P any](c queryCluster[P], gen func(*rand.Rand) P, distStr func(keys.Key) string,
	l, queries, workers, batch int, serve bool, show int, seed uint64, rng *rand.Rand) {
	switch {
	case serve:
		runServe(c, gen, l, queries, workers, seed)
	case batch > 1:
		runBatch(c, gen, l, queries, batch, seed)
	default:
		q := gen(rng)
		items, stats, err := c.KNN(q, l)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(items, stats, show, distStr)
	}
}

func printResult(items []distknn.Item, stats *distknn.QueryStats, show int, distStr func(keys.Key) string) {
	fmt.Printf("leader=machine %d  rounds=%d  messages=%d  traffic=%dB",
		stats.Leader, stats.Rounds, stats.Messages, stats.Bytes)
	if stats.Contacts > 0 {
		fmt.Printf("  contacted-nodes=%d", stats.Contacts)
	}
	if stats.Survivors > 0 {
		fmt.Printf("  prune-survivors=%d", stats.Survivors)
	}
	if stats.FellBack {
		fmt.Printf("  (las-vegas fallback)")
	}
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tdistance\tpoint-id\tlabel")
	for i, it := range items {
		if i >= show {
			fmt.Fprintf(w, "...\t(%d more)\t\t\n", len(items)-show)
			break
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%g\n", i+1, distStr(it.Key), it.Key.ID, it.Label)
	}
	w.Flush()
}

func compareAll(values []uint64, labels []float64, q distknn.Scalar, k, l int, seed uint64, bandwidth int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\trounds\tmessages\ttraffic(B)\titerations\tboundary-dist")
	for _, name := range []string{"alg2", "direct", "simple", "saukas-song", "binsearch"} {
		c, err := distknn.NewScalarCluster(values, labels, distknn.Options{
			Machines: k, Seed: seed, Algorithm: algoByName[name], BandwidthBytes: bandwidth,
		})
		if err != nil {
			fatalf("%v", err)
		}
		_, stats, err := c.KNN(q, l)
		c.Close()
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
			name, stats.Rounds, stats.Messages, stats.Bytes, stats.Iterations, stats.Boundary.Dist)
	}
	w.Flush()
	fmt.Println("\n(all algorithms returned the same boundary; they are exact)")
}

// runServe streams `total` queries at the resident cluster from `workers`
// goroutines — via the same bench.Serve driver the throughput experiment
// uses — and reports sustained throughput, latency percentiles and mean
// distributed cost. Every query is exact. In-process, the persistent
// runtime gives each in-flight query its own simulation world, so workers
// never contend on the model's links; against a remote cluster the frontend
// serializes query epochs, so added workers measure pipelining of the
// client path only.
func runServe[P any](c queryCluster[P], gen func(*rand.Rand) P, l, total, workers int, seed uint64) {
	// Per-index query streams keep the workload deterministic however the
	// work queue interleaves across workers; bench.Serve runs its own
	// un-measured warm-up query first.
	query := func(i int) P {
		return gen(xrand.NewStream(seed, 1<<52+uint64(i)))
	}
	res := bench.Serve(c, query, l, total, workers)
	if res.FirstErr != nil && res.OK() == 0 {
		fatalf("serve: %v", res.FirstErr)
	}

	ok := res.OK()
	fmt.Printf("serve: %d queries, %d workers, leader=machine %d\n", total, workers, c.Leader())
	fmt.Printf("  wall        %v\n", res.Wall.Round(time.Millisecond))
	if ok > 0 {
		fmt.Printf("  throughput  %.0f queries/s\n", res.QPS())
		fmt.Printf("  latency     p50=%v  p95=%v  p99=%v  max=%v\n",
			res.Percentile(0.50).Round(time.Microsecond), res.Percentile(0.95).Round(time.Microsecond),
			res.Percentile(0.99).Round(time.Microsecond), res.Latencies[ok-1].Round(time.Microsecond))
		fmt.Printf("  per query   rounds=%.1f  messages=%.1f  traffic=%.0fB (election: 0, paid once at startup)\n",
			float64(res.Rounds)/float64(ok), float64(res.Messages)/float64(ok),
			float64(res.Bytes)/float64(ok))
		if res.Contacts > 0 {
			fmt.Printf("  pruned      contacted-nodes/query=%.2f\n", float64(res.Contacts)/float64(ok))
		}
	}
	if res.Failed > 0 {
		fmt.Printf("  FAILED      %d queries (excluded from the numbers above; first error: %v)\n",
			res.Failed, res.FirstErr)
	}
}

// runBatch issues `total` queries serially in KNNBatch batches of `batch`
// and reports the amortized per-query throughput and cost. Against a TCP
// cluster every batch is one dispatched BSP epoch, so this is the client
// view of the wire-native batching.
func runBatch[P any](c queryCluster[P], gen func(*rand.Rand) P, l, total, batch int, seed uint64) {
	if total < 1 {
		total = 1
	}
	query := func(i int) P {
		return gen(xrand.NewStream(seed, 1<<52+uint64(i)))
	}
	// Warm up (and learn the leader) outside the clock, like bench.Serve.
	if _, _, err := c.KNN(query(0), l); err != nil {
		fatalf("batch warm-up: %v", err)
	}
	var rounds, msgs, traffic, contacts int64
	epochs := 0
	start := time.Now()
	for i := 0; i < total; i += batch {
		n := batch
		if i+n > total {
			n = total - i
		}
		qs := make([]P, n)
		for j := range qs {
			qs[j] = query(i + j)
		}
		_, stats, err := c.KNNBatch(qs, l)
		if err != nil {
			fatalf("batch at query %d: %v", i, err)
		}
		rounds += int64(stats.Rounds)
		msgs += stats.Messages
		traffic += stats.Bytes
		contacts += stats.Contacts
		epochs++
	}
	wall := time.Since(start)
	fmt.Printf("batch: %d queries in %d batches of ≤%d, leader=machine %d\n", total, epochs, batch, c.Leader())
	fmt.Printf("  wall        %v\n", wall.Round(time.Millisecond))
	fmt.Printf("  throughput  %.0f queries/s\n", float64(total)/wall.Seconds())
	fmt.Printf("  per query   rounds=%.1f  messages=%.1f  traffic=%.0fB\n",
		float64(rounds)/float64(total), float64(msgs)/float64(total), float64(traffic)/float64(total))
	if contacts > 0 {
		fmt.Printf("  pruned      contacted-nodes/query=%.2f\n", float64(contacts)/float64(total))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knnquery: "+format+"\n", args...)
	os.Exit(1)
}
