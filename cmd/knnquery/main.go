// Command knnquery builds a synthetic distributed dataset and answers one
// ℓ-NN query with any of the implemented algorithms, printing the neighbors
// and the distributed cost. With -compare it runs every algorithm on the
// same query, tabulates their costs side by side, and fails unless every
// algorithm returned Algorithm 2's boundary.
//
// With -connect it skips building anything and becomes a remote client of a
// TCP serving cluster (started with knnnode) answering one query — for
// scalar clusters and, with -metric vector -dim d, vector clusters (-metric
// also accepts l1, linf and cosine to match a cluster served with knnnode
// -vmetric). Serving throughput is measured by knnperf (benchmarks/).
//
// Examples:
//
//	knnquery -n 100000 -k 16 -l 10
//	knnquery -n 100000 -k 16 -l 10 -algo simple
//	knnquery -n 65536 -k 32 -l 256 -compare
//	knnquery -metric vector -dim 8 -n 10000 -l 5
//	knnquery -connect 127.0.0.1:7100 -l 10
//	knnquery -connect 127.0.0.1:7100 -metric vector -dim 8 -l 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"distknn"
	"distknn/internal/core"
	"distknn/internal/keys"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// options holds knnquery's command line.
type options struct {
	n, k, l, dim, bandwidth, show    int
	seed                             uint64
	algoName, metric, connect, admin string
	compare                          bool
	timeout                          time.Duration
}

// defineFlags declares every knnquery flag on fs; cmd/knnquery's doc test
// checks the command lines in the docs against this set.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.n, "n", 1<<16, "total number of points")
	fs.IntVar(&o.k, "k", 8, "number of machines")
	fs.IntVar(&o.l, "l", 10, "number of nearest neighbors")
	fs.Uint64Var(&o.seed, "seed", 1, "dataset and protocol seed")
	var names []string
	for _, a := range core.Algorithms() {
		names = append(names, a.String())
	}
	fs.StringVar(&o.algoName, "algo", distknn.Alg2.String(), "algorithm: "+strings.Join(names, "|"))
	fs.StringVar(&o.metric, "metric", "scalar", "point type: scalar|vector; with -connect also l1|linf|cosine")
	fs.IntVar(&o.dim, "dim", 4, "vector dimension (for -metric vector)")
	fs.IntVar(&o.bandwidth, "bandwidth", 0, "link bandwidth in bytes/round (0 = 64)")
	fs.BoolVar(&o.compare, "compare", false, "run every algorithm and compare costs")
	fs.IntVar(&o.show, "show", 10, "how many neighbors to print")
	fs.StringVar(&o.connect, "connect", "", "frontend address of a remote TCP serving cluster (see knnnode); query it instead of building a local one")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-query deadline against a remote cluster (0 = none); churn-degraded queries are retried for up to 500ms either way")
	fs.StringVar(&o.admin, "admin", "", "with -connect: serve the client's runtime metrics on this HTTP address (/metrics, /debug/pprof)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	algo, ok := core.ParseAlgorithm(o.algoName)
	if !ok {
		fatalf("unknown algorithm %q", o.algoName)
	}
	rng := xrand.New(o.seed)

	genScalar := func() distknn.Scalar { return distknn.Scalar(rng.Uint64N(points.PaperDomain)) }
	dims := o.dim
	genVector := func() distknn.Vector {
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
		copts := distknn.ClientOptions{Timeout: o.timeout}
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
			answer(rc.KNN, genScalar(), o.l, o.show, scalarDist)
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
			answer(rc.KNN, genVector(), o.l, o.show, vectorDist)
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
		q := genScalar()
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
		answer(c.KNN, q, o.l, o.show, scalarDist)
	case "vector":
		vecs := make([]distknn.Vector, o.n)
		labels := make([]float64, o.n)
		for i := range vecs {
			vecs[i] = genVector()
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
		answer(c.KNN, genVector(), o.l, o.show, vectorDist)
	default:
		fatalf("unknown metric %q", o.metric)
	}
}

// answer runs one query through knn — an in-process Cluster's or a
// RemoteCluster's KNN — and prints it.
func answer[P any](knn func(P, int) ([]distknn.Item, *distknn.QueryStats, error),
	q P, l, show int, distStr func(keys.Key) string) {
	items, stats, err := knn(q, l)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(items, stats, show, distStr)
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

// compareAll runs every algorithm on the same query and exits non-zero
// naming each one whose boundary differs from alg2's: all five are exact.
func compareAll(values []uint64, labels []float64, q distknn.Scalar, k, l int, seed uint64, bandwidth int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\trounds\tmessages\ttraffic(B)\titerations\tboundary-dist")
	var want distknn.Key
	var wrong []string
	for i, algo := range core.Algorithms() {
		c, err := distknn.NewScalarCluster(values, labels, distknn.Options{
			Machines: k, Seed: seed, Algorithm: algo, BandwidthBytes: bandwidth,
		})
		if err != nil {
			fatalf("%v", err)
		}
		_, stats, err := c.KNN(q, l)
		c.Close()
		if err != nil {
			fatalf("%v: %v", algo, err)
		}
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\t%d\n",
			algo, stats.Rounds, stats.Messages, stats.Bytes, stats.Iterations, stats.Boundary.Dist)
		if i == 0 {
			want = stats.Boundary
		} else if stats.Boundary != want {
			wrong = append(wrong, fmt.Sprintf("%v %+v", algo, stats.Boundary))
		}
	}
	w.Flush()
	if len(wrong) > 0 {
		fatalf("boundary differs from alg2's %+v: %s", want, strings.Join(wrong, ", "))
	}
	fmt.Println("\n(all algorithms returned the same boundary; they are exact)")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knnquery: "+format+"\n", args...)
	os.Exit(1)
}
