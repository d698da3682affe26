// Command knnbench regenerates the paper's evaluation on the simulator —
// every experiment of the per-experiment index (E1–E9), including Figure 2
// — plus the persistent-runtime throughput comparison (E10). Results print
// as aligned tables, CSV, or one JSON document for machine consumption.
// Nothing here opens a socket: the TCP serving stack is measured by
// knnperf (benchmarks/).
//
// Examples:
//
//	knnbench -list
//	knnbench -experiment figure2
//	knnbench -experiment figure2 -ks 2,8,32,128 -ls 8,128,2048 -reps 30
//	knnbench -experiment all -quick
//	knnbench -experiment sampling -csv > sampling.csv
//	knnbench -experiment all -quick -json > knnbench_quick.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"distknn/internal/bench"
	"distknn/internal/kmachine"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id, comma-separated ids (see -list), or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		reps       = flag.Int("reps", 0, "repetitions per configuration (0 = default)")
		perMachine = flag.Int("points", 0, "points per machine (0 = default 2^14; paper used 2^22)")
		bandwidth  = flag.Int("bandwidth", 0, "link bandwidth in bytes/round (0 = 64, <0 = unlimited)")
		ks         = flag.String("ks", "", "comma-separated machine counts to sweep")
		ls         = flag.String("ls", "", "comma-separated l values to sweep")
		latency    = flag.Duration("latency", 50*time.Microsecond, "modeled per-round link latency")
		quick      = flag.Bool("quick", false, "tiny sweep sizes (smoke test)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = flag.Bool("json", false, "emit one JSON document instead of tables")
	)
	flag.Parse()

	if *csv && *jsonOut {
		fatalf("-csv and -json are mutually exclusive")
	}
	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return
	}

	params := bench.Params{
		Seed:       *seed,
		Reps:       *reps,
		PerMachine: *perMachine,
		Bandwidth:  *bandwidth,
		Model:      kmachine.CostModel{RoundLatency: *latency},
		Quick:      *quick,
	}
	var err error
	if params.Ks, err = parseInts(*ks); err != nil {
		fatalf("bad -ks: %v", err)
	}
	if params.Ls, err = parseInts(*ls); err != nil {
		fatalf("bad -ls: %v", err)
	}

	var todo []bench.Experiment
	if *experiment == "all" {
		todo = bench.Experiments
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fatalf("unknown experiment %q (use -list)", id)
			}
			todo = append(todo, e)
		}
	}

	var doc jsonDoc
	doc.Seed = params.Seed
	doc.Quick = params.Quick
	doc.Meta = runMeta()
	for _, e := range todo {
		start := time.Now()
		tables, err := e.Run(params)
		if err != nil {
			fatalf("%s: %v", e.ID, err)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			doc.Experiments = append(doc.Experiments, jsonExperiment{
				ID:          e.ID,
				Description: e.Description,
				ElapsedMs:   float64(elapsed.Microseconds()) / 1e3,
				Tables:      tables,
			})
			continue
		}
		for _, t := range tables {
			if *csv {
				if err := t.WriteCSV(os.Stdout); err != nil {
					fatalf("csv: %v", err)
				}
			} else {
				t.Render(os.Stdout)
			}
		}
		if !*csv {
			fmt.Printf("(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatalf("json: %v", err)
		}
	}
}

// jsonDoc is the machine-readable output of -json: everything the text
// tables carry, keyed by experiment id.
type jsonDoc struct {
	Seed        uint64           `json:"seed"`
	Quick       bool             `json:"quick"`
	Meta        jsonMeta         `json:"meta"`
	Experiments []jsonExperiment `json:"experiments"`
}

// jsonMeta records the environment a -json run was measured in, so two
// documents are only compared like with like.
type jsonMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Gomaxprocs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit,omitempty"`
}

// runMeta gathers the run environment. The commit comes from the build's
// embedded VCS stamp when the binary was built inside a checkout, falling
// back to the CI-provided GITHUB_SHA.
func runMeta() jsonMeta {
	m := jsonMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	if m.Commit == "" {
		m.Commit = os.Getenv("GITHUB_SHA")
	}
	return m
}

type jsonExperiment struct {
	ID          string         `json:"id"`
	Description string         `json:"description"`
	ElapsedMs   float64        `json:"elapsed_ms"`
	Tables      []*bench.Table `json:"tables"`
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d must be >= 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "knnbench: "+format+"\n", args...)
	os.Exit(1)
}
