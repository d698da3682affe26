// Command knnperf is the serving-stack benchmark: four workloads, one per
// dispatch shape, each a real loopback-TCP cluster (a frontend and four
// nodes) brought up inside this process and driven closed-loop through
// distknn.RemoteCluster. See benchmarks/README.md.
//
// The contract form measures one workload and prints one JSON object as the
// last line of standard output:
//
//	knnperf -workload mesh_rounds -seed 1 -seconds 20 -trace 0   end-to-end metrics
//	knnperf -workload mesh_rounds -seed 1 -seconds 20 -trace 1   per-layer metrics
//
// The report forms work on whole reports:
//
//	knnperf -all [-json]             every workload, both passes, one report
//	knnperf -merge r1.json r2.json   medians of several reports, as a report
//	knnperf -compare a.json b.json   one row per workload and end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// commit is the source revision, set by run.sh at link time.
var commit = "unknown"

func main() {
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	// An explicit exit: nothing the clusters left behind can keep the
	// process alive past its result.
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knnperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to measure: mesh_rounds, mesh_scan, coalesced_mux or pruned_mixed")
		seed     = fs.Uint64("seed", 1, "seed of the data and the query stream (seed 2 is held out for later claims)")
		seconds  = fs.Float64("seconds", 20, "measuring time of one pass, in seconds")
		trace    = fs.Int("trace", 0, "0 measures end to end with tracing off, 1 runs the traced pass and the layer probes")
		all      = fs.Bool("all", false, "measure every workload, both passes, and print one report")
		asJSON   = fs.Bool("json", false, "with -all: print the report as JSON")
		out      = fs.String("out", "benchmarks/out", "directory the traced pass writes trace-<workload>.jsonl into")
		compare  = fs.Bool("compare", false, "compare two reports: knnperf -compare a.json b.json")
		merge    = fs.Bool("merge", false, "merge reports into their medians: knnperf -merge r1.json r2.json ...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "knnperf: %v\n", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *merge:
		if fs.NArg() < 1 {
			return fail(fmt.Errorf("-merge takes one or more report files"))
		}
		rep, err := mergeFiles(fs.Args())
		if err != nil {
			return fail(err)
		}
		return emit(stdout, rep, fail)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		rounds:  8,
		warm:    400 * time.Millisecond,
		size:    fullSize,
		log:     stderr,
	}
	// One pass is its measuring time plus set-ups, oracle and probes, which
	// the allowance covers with room; a run twice as long as planned is hung.
	planned := cfg.seconds + 40*time.Second
	if *all {
		planned *= time.Duration(2 * len(workloadNames))
	}
	watchdog := time.AfterFunc(2*planned, func() {
		fmt.Fprintf(stderr, "knnperf: watchdog: still running after %v, twice the planned length; giving up\n", 2*planned)
		os.Exit(3)
	})
	defer watchdog.Stop()

	if *all {
		rep, failed, err := measureAll(cfg, *out)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			if code := emit(stdout, rep, fail); code != 0 {
				return code
			}
		} else {
			rep.print(stdout)
		}
		if failed {
			return fail(fmt.Errorf("some replies failed or disagreed with the oracle"))
		}
		return 0
	}

	r, err := newRunner(*workload, cfg.seed, cfg.size)
	if err != nil {
		return fail(err)
	}
	var res result
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		cfg.traces = &traceLog{}
		res, err = r.layers(cfg)
	} else {
		res, err = r.endToEnd(cfg)
	}
	if err != nil {
		return fail(err)
	}
	if cfg.traces != nil {
		if err := cfg.traces.flush(*out, *workload); err != nil {
			return fail(err)
		}
	}
	metrics, err := res.vals.named(defs)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return fail(fmt.Errorf("%s: %d of %d calls failed or disagreed with the oracle (%d replies compared)",
			*workload, res.failed, res.attempted, res.verified))
	}
	return 0
}

// correct holds when no call failed, no kept reply disagreed with the
// oracle, and the oracle saw at least the first 32 queries of the stream.
func (r result) correct() bool { return r.failed == 0 && r.verified >= 32 }

// named pairs each defined metric with its measured value and unit; a
// metric that was defined but not measured is an error.
func (v values) named(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}

func emit(stdout io.Writer, rep *report, fail func(error) int) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fail(err)
	}
	return 0
}
