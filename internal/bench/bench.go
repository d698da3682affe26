// Package bench is the experiment harness: it regenerates every figure and
// quantitative claim of the paper's evaluation as a table of measurements
// (E1–E9), plus E10, the persistent simulator runtime against the one-shot
// path. Everything runs on the in-process simulator; the TCP serving stack
// is measured by knnperf (benchmarks/), not here.
//
// Each experiment is a pure function from Params to tables; cmd/knnbench
// renders them as text or CSV, and bench_test.go smoke-tests each one in
// Quick mode. The workload reproduces Section 3 of the paper: every machine
// independently generates uniform random scalar points in [0, 2³²−1] and
// queries are uniform in the same range.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"distknn/internal/core"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// Params are the knobs shared by all experiments. Zero values select
// defaults sized for a laptop run; Quick shrinks everything for CI.
type Params struct {
	// Seed drives workload generation and the simulator.
	Seed uint64
	// Reps is the number of repeated queries per configuration (the paper
	// averages 30–100 runs).
	Reps int
	// PerMachine is the number of points each machine generates (the
	// paper used 2²²; the default is 2¹⁴ so the full suite runs in
	// seconds — pass the paper's value for a full-scale run).
	PerMachine int
	// Bandwidth is the per-link capacity in bytes/round (0 = default).
	Bandwidth int
	// Ks and Ls override the swept machine counts and ℓ values.
	Ks, Ls []int
	// Model converts rounds to modeled wall time.
	Model kmachine.CostModel
	// Quick shrinks sweeps and sizes to smoke-test scale.
	Quick bool
}

func (p Params) withDefaults() Params {
	if p.Reps == 0 {
		p.Reps = 5
		if p.Quick {
			p.Reps = 2
		}
	}
	if p.PerMachine == 0 {
		p.PerMachine = 1 << 14
		if p.Quick {
			p.PerMachine = 1 << 9
		}
	}
	if p.Model.RoundLatency == 0 {
		p.Model = kmachine.DefaultCostModel
	}
	return p
}

func (p Params) ks(def []int) []int {
	if len(p.Ks) > 0 {
		return p.Ks
	}
	if p.Quick {
		return []int{2, 4}
	}
	return def
}

func (p Params) ls(def []int) []int {
	if len(p.Ls) > 0 {
		return p.Ls
	}
	if p.Quick {
		return []int{8, 64}
	}
	return def
}

// Table is a rendered experiment result. The json tags define the schema
// cmd/knnbench -json emits; renaming them is a breaking change.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table as CSV with a leading comment line.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	writeLine := func(cells []string) error {
		_, err := fmt.Fprintln(w, strings.Join(cells, ","))
		return err
	}
	if err := writeLine(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// Algo names a distributed ℓ-NN algorithm under test.
type Algo struct {
	Name string
	Fn   func(m kmachine.Env, cfg core.Config, local []points.Item) (core.Result, error)
}

// Algos is the comparison roster: the paper's algorithm, its un-sampled
// variant, the evaluation baseline, and the two related-work baselines.
var Algos = []Algo{
	{"alg2", core.KNN},
	{"direct", core.DirectKNN},
	{"simple", core.SimpleKNN},
	{"saukas-song", core.SaukasSongKNN},
	{"binsearch", core.BinarySearchKNN},
}

// Instance is a generated workload: k machines, each holding PerMachine
// uniform scalar points, exactly as in the paper's experiment.
type Instance struct {
	K     int
	Parts []*points.Set[points.Scalar]
}

// NewInstance generates the per-machine datasets. Machine i draws from its
// own random stream and owns the ID block [i·n+1, (i+1)·n].
func NewInstance(seed uint64, k, perMachine int) *Instance {
	in := &Instance{K: k, Parts: make([]*points.Set[points.Scalar], k)}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.NewStream(seed, uint64(i))
			s := points.GenUniformScalars(rng, perMachine, points.PaperDomain)
			for j := range s.IDs {
				s.IDs[j] = uint64(i)*uint64(perMachine) + uint64(j) + 1
			}
			in.Parts[i] = s
		}(i)
	}
	wg.Wait()
	return in
}

// Query draws the rep-th query point for this instance.
func (in *Instance) Query(seed uint64, rep int) points.Scalar {
	rng := xrand.NewStream(seed, 1<<40+uint64(rep))
	return points.Scalar(rng.Uint64N(points.PaperDomain))
}

// Run executes one algorithm for one query across the instance's machines.
// The local top-ℓ scan happens inside each machine's program, so
// CriticalCompute reflects the real parallel preprocessing cost. It returns
// the leader-agreed result, the run metrics and the harness wall time.
func (in *Instance) Run(q points.Scalar, l, bandwidth int, seed uint64,
	algo Algo, cfg core.Config) (core.Result, *kmachine.Metrics, time.Duration, error) {
	cfg.L = l
	var mu sync.Mutex
	var res core.Result
	progs := make([]kmachine.Program, in.K)
	for i := 0; i < in.K; i++ {
		i := i
		progs[i] = func(m kmachine.Env) error {
			local := in.Parts[i].TopLItems(q, l)
			r, err := algo.Fn(m, cfg, local)
			if err != nil {
				return err
			}
			if m.ID() == cfg.Leader {
				mu.Lock()
				res = r
				mu.Unlock()
			}
			return nil
		}
	}
	start := time.Now()
	met, err := kmachine.RunPrograms(kmachine.Config{
		K:              in.K,
		Seed:           seed,
		BandwidthBytes: bandwidth,
		MeasureCompute: true,
	}, progs)
	wall := time.Since(start)
	if err != nil {
		return core.Result{}, nil, wall, err
	}
	return res, met, wall, nil
}

// f formats a float compactly for table cells.
func f(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1000 || x < 0.01:
		return fmt.Sprintf("%.3g", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

// d formats an integer cell.
func d[T int | int64](x T) string { return fmt.Sprintf("%d", x) }
