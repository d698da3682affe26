package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
)

// reportMetric is one value of a report. Spread is the distance between the
// quartiles as a share of the median: between the windows of one run in a
// report made by -all, between runs in one made by -merge.
type reportMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
}

type workloadReport struct {
	EndToEnd  map[string]reportMetric `json:"end_to_end"`
	PerLayer  map[string]reportMetric `json:"per_layer"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Verified  int                     `json:"verified"`
}

type report struct {
	Meta struct {
		Commit     string  `json:"commit"`
		GoVersion  string  `json:"go_version"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		NumCPU     int     `json:"nproc"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Runs       int     `json:"runs"` // reports merged into this one
	} `json:"meta"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// measureAll runs both passes of every workload, one after another, and
// writes the trace files. failed reports whether any call failed or any
// reply disagreed with the oracle.
func measureAll(cfg config, traceDir string) (rep *report, failed bool, err error) {
	rep = &report{Workloads: map[string]workloadReport{}}
	rep.Meta.Commit = commit
	rep.Meta.GoVersion = runtime.Version()
	rep.Meta.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Meta.NumCPU = runtime.NumCPU()
	rep.Meta.Seed = cfg.seed
	rep.Meta.Seconds = cfg.seconds.Seconds()
	rep.Meta.Runs = 1
	for _, name := range workloadNames {
		r, err := newRunner(name, cfg.seed, cfg.size)
		if err != nil {
			return nil, false, err
		}
		e2e, err := r.endToEnd(cfg)
		if err != nil {
			return nil, false, err
		}
		cfg.traces = &traceLog{}
		lay, err := r.layers(cfg)
		if err != nil {
			return nil, false, err
		}
		if err := cfg.traces.flush(traceDir, name); err != nil {
			return nil, false, err
		}
		wr := workloadReport{
			EndToEnd:  map[string]reportMetric{},
			PerLayer:  map[string]reportMetric{},
			Attempted: e2e.attempted + lay.attempted,
			Failed:    e2e.failed + lay.failed,
			Verified:  e2e.verified + lay.verified,
		}
		em, err := e2e.vals.named(endToEnd)
		if err != nil {
			return nil, false, err
		}
		for name, m := range em {
			wr.EndToEnd[name] = reportMetric{Value: m.Value, Unit: m.Unit, Spread: e2e.spreads[name]}
		}
		lm, err := lay.vals.named(perLayer)
		if err != nil {
			return nil, false, err
		}
		for name, m := range lm {
			wr.PerLayer[name] = reportMetric{Value: m.Value, Unit: m.Unit}
		}
		rep.Workloads[name] = wr
		failed = failed || !e2e.correct() || !lay.correct()
	}
	return rep, failed, nil
}

// print writes the report as a table: every metric by name, with its unit.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "knnperf  commit %s  %s  GOMAXPROCS %d  nproc %d  seed %d  %.0f s per pass  runs %d\n",
		rep.Meta.Commit, rep.Meta.GoVersion, rep.Meta.GOMAXPROCS, rep.Meta.NumCPU, rep.Meta.Seed, rep.Meta.Seconds, rep.Meta.Runs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range workloadNames {
		wr, ok := rep.Workloads[name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "\n%s\tattempted %d\tfailed %d\tcompared with the oracle %d\n", name, wr.Attempted, wr.Failed, wr.Verified)
		for _, d := range endToEnd {
			m := wr.EndToEnd[d.name]
			fmt.Fprintf(tw, "  %s\t%.4f\t%s\tspread %.3f  bound %.2f\n", d.name, m.Value, m.Unit, m.Spread, d.bound)
		}
		for _, d := range perLayer {
			m := wr.PerLayer[d.name]
			fmt.Fprintf(tw, "  %s\t%.4f\t%s\t-> %s\n", d.name, m.Value, m.Unit, d.moves)
		}
	}
	tw.Flush()
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a knnperf report: no workloads", path)
	}
	return &rep, nil
}

// mergeFiles folds several reports of the same code into one: each value
// is the median over the reports and each spread the distance between their
// quartiles, as a share of that median.
func mergeFiles(paths []string) (*report, error) {
	var reps []*report
	for _, p := range paths {
		rep, err := readReport(p)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	out := &report{Meta: reps[0].Meta, Workloads: map[string]workloadReport{}}
	out.Meta.Runs = 0
	for _, rep := range reps {
		out.Meta.Runs += rep.Meta.Runs
	}
	fold := func(pick func(workloadReport) map[string]reportMetric, workload string) (map[string]reportMetric, error) {
		merged := map[string]reportMetric{}
		for name, first := range pick(reps[0].Workloads[workload]) {
			var xs []float64
			for i, rep := range reps {
				m, ok := pick(rep.Workloads[workload])[name]
				if !ok {
					return nil, fmt.Errorf("%s: no %s %s", paths[i], workload, name)
				}
				xs = append(xs, m.Value)
			}
			merged[name] = reportMetric{Value: median(xs), Unit: first.Unit, Spread: spread(xs)}
		}
		return merged, nil
	}
	for workload := range reps[0].Workloads {
		var wr workloadReport
		var err error
		if wr.EndToEnd, err = fold(func(w workloadReport) map[string]reportMetric { return w.EndToEnd }, workload); err != nil {
			return nil, err
		}
		if wr.PerLayer, err = fold(func(w workloadReport) map[string]reportMetric { return w.PerLayer }, workload); err != nil {
			return nil, err
		}
		for _, rep := range reps {
			w := rep.Workloads[workload]
			wr.Attempted += w.Attempted
			wr.Failed += w.Failed
			wr.Verified += w.Verified
		}
		out.Workloads[workload] = wr
	}
	return out, nil
}

// compareFiles prints one row per workload and end-to-end metric of two
// reports, a the base and b the candidate: both values, the change as a
// share of a, the bound, and a verdict. worse: b is worse than a by more
// than the bound. unresolved: either side's own spread is wider than the
// bound, so the pair cannot tell. It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t%s\tunit\tchange (of a)\tbound\tverdict\n", pathA, pathB)
	for _, name := range workloadNames {
		wa, okA := a.Workloads[name]
		wb, okB := b.Workloads[name]
		if !okA || !okB {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.name]
			mb, okB := wb.EndToEnd[d.name]
			if !okA || !okB || ma.Value == 0 {
				return false, fmt.Errorf("%s %s: missing or zero in one of the reports", name, d.name)
			}
			change := (mb.Value - ma.Value) / ma.Value
			worsening := change
			if d.better == "higher" {
				worsening = -change
			}
			verdict := "ok"
			switch {
			case ma.Spread > d.bound || mb.Spread > d.bound:
				verdict = "unresolved"
			case worsening > d.bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				name, d.name, ma.Value, mb.Value, d.unit, 100*change, 100*d.bound, verdict)
		}
	}
	return worse, tw.Flush()
}
