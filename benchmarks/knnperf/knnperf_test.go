package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// smallConfig is two rounds of 150 ms windows — in the traced pass one bare
// and one traced — on the test-size data: enough to pass through every code
// path, not to measure anything.
func smallConfig() config {
	return config{
		seed:    1,
		seconds: 300 * time.Millisecond,
		rounds:  2,
		warm:    50 * time.Millisecond,
		size:    testSize,
		traces:  &traceLog{},
		log:     io.Discard,
	}
}

// TestSmoke runs both passes of every workload and checks that each
// reports every metric it defines, that no call failed, and that the oracle
// agreed with every reply it was shown.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig()
			r, err := newRunner(name, cfg.seed, cfg.size)
			if err != nil {
				t.Fatal(err)
			}
			e2e, err := r.endToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lay, err := r.layers(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				res  result
				defs []metricDef
			}{{e2e, endToEnd}, {lay, perLayer}} {
				if pass.res.failed != 0 || pass.res.verified == 0 || pass.res.attempted == 0 {
					t.Errorf("attempted %d, failed %d, compared with the oracle %d",
						pass.res.attempted, pass.res.failed, pass.res.verified)
				}
				metrics, err := pass.res.vals.named(pass.defs)
				if err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(pass.defs) {
					t.Errorf("%d metrics for %d definitions: a name is defined twice", len(metrics), len(pass.defs))
				}
				if _, err := json.Marshal(metrics); err != nil {
					t.Errorf("metrics do not marshal (a NaN or an infinity?): %v", err)
				}
			}
			for _, m := range []string{"qps", "latency_p50_ms", "latency_p95_ms", "setup_s", "live_heap_mb"} {
				if e2e.vals[m] <= 0 {
					t.Errorf("%s = %v, want a positive value", m, e2e.vals[m])
				}
			}
			if got := lay.vals["runtime.goroutines_leaked"]; got != 0 {
				t.Errorf("%v goroutines outlived their clusters", got)
			}
			if len(cfg.traces.lines) == 0 {
				t.Error("the traced pass kept no spans")
			}
			dir := t.TempDir()
			if err := cfg.traces.flush(dir, name); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range []string{`"span":"client.call"`, `"span":"frontend.epoch"`, `"span":"probe.kdtree.build"`} {
				if !bytes.Contains(data, []byte(span)) {
					t.Errorf("trace file has no %s line", span)
				}
			}
		})
	}
}

// replay issues the first n queries of a workload one after another over one
// connection and returns the frontend's counters afterwards.
func replay[P any](t *testing.T, s *spec[P], n uint64) map[string]int64 {
	t.Helper()
	h := newHandles()
	c, err := s.bringUp(1, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if _, err := s.call(c.rcs[0], i, s.query(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	return h.frontend.Snapshot().Counters
}

// TestSerialReplayRepeats pins what makes the ledger's counts comparable
// between two commits: the same seed and the same serial query stream cost
// the same rounds and the same contacts, exactly, twice in a row.
func TestSerialReplayRepeats(t *testing.T) {
	for name, counter := range map[string]string{
		"mesh_rounds":  "frontend_mesh_rounds_total",
		"pruned_mixed": "frontend_prune_contacts_total",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := newRunner(name, 1, testSize)
			if err != nil {
				t.Fatal(err)
			}
			s := &r.(*bench[distknn.Vector]).spec
			first, second := replay(t, s, 200), replay(t, s, 200)
			if first[counter] == 0 || first[counter] != second[counter] {
				t.Errorf("%s: %d then %d over the same 200 queries", counter, first[counter], second[counter])
			}
			if first["frontend_queries_total"] != 200 {
				t.Errorf("frontend counted %d queries, want 200", first["frontend_queries_total"])
			}
		})
	}
}

// TestOracleNearest checks the oracle's bounded selection against a full
// sort of the same points.
func TestOracleNearest(t *testing.T) {
	s := &spec[distknn.Vector]{
		metric: points.L2,
		shards: distknn.UniformVectorShards(7, 500, dim),
	}
	o, err := newOracle(s)
	if err != nil {
		t.Fatal(err)
	}
	pts, labels := o.union()
	all, err := points.NewSet(pts, labels, points.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for _, l := range []int{1, 7, 64, 1999, 2000, 2500} {
		q := distknn.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		got, want := o.nearest(q, l), all.BruteKNN(q, l)
		if len(got) != len(want) {
			t.Fatalf("l=%d: %d items, want %d", l, len(got), len(want))
		}
		for i := range want {
			if got[i].Item != want[i] {
				t.Fatalf("l=%d: item %d is %v, want %v", l, i, got[i].Item, want[i])
			}
		}
	}
}

func TestAggregates(t *testing.T) {
	item := func(label float64, seat int) seatItem {
		return seatItem{Item: distknn.Item{Label: label}, seat: seat}
	}
	if got := majority([]seatItem{item(3, 0), item(1, 1), item(3, 2), item(1, 3)}); got != 1 {
		t.Errorf("majority of a tie = %v, want the smaller label 1", got)
	}
	// (1 + 1) + 1e16 keeps both ones; (1e16 + 1) + 1 loses them.
	items := []seatItem{item(1, 0), item(1, 1), item(1e16, 2)}
	if a, b := leaderMean(items, 0), leaderMean(items, 2); a == b {
		t.Errorf("leaderMean ignores the leader's position in the sum: %v both ways", a)
	}
}

func writeReport(t *testing.T, dir, name string, qps, spread float64) string {
	t.Helper()
	rep := report{Workloads: map[string]workloadReport{}}
	for _, w := range workloadNames {
		wr := workloadReport{EndToEnd: map[string]reportMetric{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = reportMetric{Value: 10, Unit: d.unit}
		}
		rep.Workloads[w] = wr
	}
	rep.Workloads["mesh_scan"].EndToEnd["qps"] = reportMetric{Value: qps, Unit: "queries/s", Spread: spread}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", 100, 0.02)
	for _, tc := range []struct {
		name    string
		qps     float64
		spread  float64
		verdict string
		worse   bool
	}{
		{"same", 100, 0.02, "ok", false},
		{"faster", 130, 0.02, "ok", false},
		{"within-bound", 80, 0.02, "ok", false},
		{"slower", 70, 0.02, "worse", true},
		{"too-noisy-to-tell", 70, 0.30, "unresolved", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			worse, err := compareFiles(&out, base, writeReport(t, dir, tc.name+".json", tc.qps, tc.spread))
			if err != nil {
				t.Fatal(err)
			}
			if worse != tc.worse {
				t.Errorf("worse = %v, want %v\n%s", worse, tc.worse, out.String())
			}
			rows := 0
			for _, line := range strings.Split(out.String(), "\n") {
				fields := strings.Fields(line)
				if len(fields) < 3 || fields[0] == "workload" {
					continue
				}
				rows++
				want := "ok"
				if fields[0] == "mesh_scan" && fields[1] == "qps" {
					want = tc.verdict
				}
				if got := fields[len(fields)-1]; got != want {
					t.Errorf("%s %s: verdict %s, want %s", fields[0], fields[1], got, want)
				}
			}
			if want := len(workloadNames) * len(endToEnd); rows != want {
				t.Errorf("%d rows, want one per workload and end-to-end metric, %d", rows, want)
			}
		})
	}
}

func TestMerge(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, qps := range []float64{90, 100, 110, 120, 130} {
		paths = append(paths, writeReport(t, dir, string(rune('a'+i))+".json", qps, 0))
	}
	rep, err := mergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Workloads["mesh_scan"].EndToEnd["qps"]
	// Quartiles of five values by the exclusive method sit at 95 and 125.
	if got.Value != 110 || got.Spread < 0.272 || got.Spread > 0.273 {
		t.Errorf("merged qps = %+v, want the median 110 and a spread of 30/110", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metric and workload tables compiled into the benchmark.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var file struct {
		Workloads []row `json:"workloads"`
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why: %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	check := func(kind string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(rows), kind, len(defs))
		}
		for i, d := range defs {
			r := rows[i]
			if r.Name != d.name || r.Unit != d.unit || r.Better != d.better {
				t.Errorf("%s metric %d is %+v, want %s in %s, better %s", kind, i, r, d.name, d.unit, d.better)
			}
			if bounded && (r.Bound == nil || *r.Bound != d.bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from %v", d.name, d.bound)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, true)
	check("per-layer", file.PerLayer, perLayer, false)
}
