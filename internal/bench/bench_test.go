package bench

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"distknn"
	"distknn/internal/core"
)

func quickParams() Params {
	return Params{Seed: 42, Quick: true}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(quickParams())
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s table %q has no rows", e.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("%s: row width %d != header width %d", e.ID, len(row), len(tb.Header))
					}
				}
			}
		})
	}
}

func TestServeDriver(t *testing.T) {
	values := make([]uint64, 200)
	for i := range values {
		values[i] = uint64(i) * 977
	}
	c, err := distknn.NewScalarCluster(values, nil, distknn.Options{Machines: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := func(i int) distknn.Scalar { return distknn.Scalar(i * 131) }

	res := Serve(c, query, 5, 20, 4)
	if res.FirstErr != nil {
		t.Fatal(res.FirstErr)
	}
	if res.OK() != 20 || res.Failed != 0 {
		t.Errorf("ok=%d failed=%d, want 20/0", res.OK(), res.Failed)
	}
	if res.QPS() <= 0 || res.Percentile(0.5) <= 0 || res.Rounds <= 0 {
		t.Errorf("empty measurements: %+v", res)
	}
	for i := 1; i < len(res.Latencies); i++ {
		if res.Latencies[i] < res.Latencies[i-1] {
			t.Fatalf("latencies not sorted at %d", i)
		}
	}

	// Failure path: l > n fails the un-measured warm-up, so the run aborts
	// with only FirstErr set — no measured query was attempted.
	bad := Serve(c, query, len(values)+1, 5, 2)
	if bad.Failed != 0 || bad.OK() != 0 || bad.FirstErr == nil {
		t.Errorf("warm-up failure: ok=%d failed=%d err=%v", bad.OK(), bad.Failed, bad.FirstErr)
	}
	if bad.Percentile(0.5) != 0 {
		t.Errorf("percentile of zero successes should be 0")
	}
	if bad.QPS() != 0 {
		t.Errorf("QPS of an aborted run should be 0")
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("figure2"); !ok {
		t.Errorf("figure2 must exist")
	}
	if _, ok := ByID("nope"); ok {
		t.Errorf("unknown id must not resolve")
	}
}

// TestDocsNameLiveExperiments keeps the prose honest: every id a document
// passes to knnbench -experiment must resolve through ByID, and -run is a
// flag knnbench has never had.
func TestDocsNameLiveExperiments(t *testing.T) {
	cite := regexp.MustCompile(`(knnbench\s+-run|-experiment)\s+([a-z0-9,]+)`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		cites := cite.FindAllStringSubmatch(string(text), -1)
		if len(cites) == 0 {
			t.Errorf("%s cites no experiment — has the command form this test scans for changed?", doc)
		}
		for _, m := range cites {
			if m[1] != "-experiment" {
				t.Errorf("%s: %q — knnbench selects experiments with -experiment", doc, m[0])
				continue
			}
			for _, id := range strings.Split(m[2], ",") {
				if _, ok := ByID(id); !ok && id != "all" {
					t.Errorf("%s: %q names unknown experiment %q", doc, m[0], id)
				}
			}
		}
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{
		ID:     "X",
		Title:  "demo",
		Note:   "a note",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("1", "2")
	var text, csv bytes.Buffer
	tb.Render(&text)
	if !strings.Contains(text.String(), "demo") || !strings.Contains(text.String(), "a note") {
		t.Errorf("Render missing title/note:\n%s", text.String())
	}
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[1] != "a,bb" || lines[2] != "1,2" {
		t.Errorf("CSV = %q", csv.String())
	}
}

func TestFigure2RatiosFavorAlg2AtLargeL(t *testing.T) {
	// Structural acceptance: at the largest (k, l) cell the rounds ratio
	// must clearly exceed 1 (the paper's headline).
	p := quickParams()
	p.Ks = []int{4}
	p.Ls = []int{512}
	p.PerMachine = 1 << 11
	tables, err := Figure2(p)
	if err != nil {
		t.Fatal(err)
	}
	last := tables[0].Rows[len(tables[0].Rows)-1]
	// Header: k, l, time_ratio, rounds_ratio, ...
	ratio, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		t.Fatalf("rounds_ratio cell %q: %v", last[3], err)
	}
	if ratio < 2 {
		t.Errorf("rounds ratio %g at l=512 — expected the simple method to lose clearly", ratio)
	}
}

func TestInstanceDeterministicAndDisjointIDs(t *testing.T) {
	a := NewInstance(7, 3, 100)
	b := NewInstance(7, 3, 100)
	seen := make(map[uint64]bool)
	for i := range a.Parts {
		if a.Parts[i].Len() != 100 {
			t.Fatalf("machine %d has %d points", i, a.Parts[i].Len())
		}
		for j := range a.Parts[i].Pts {
			if a.Parts[i].Pts[j] != b.Parts[i].Pts[j] {
				t.Fatalf("instance not deterministic at machine %d", i)
			}
			id := a.Parts[i].IDs[j]
			if seen[id] {
				t.Fatalf("duplicate ID %d across machines", id)
			}
			seen[id] = true
		}
	}
	if a.Query(7, 0) != b.Query(7, 0) {
		t.Errorf("queries not deterministic")
	}
	if a.Query(7, 0) == a.Query(7, 1) {
		t.Errorf("distinct reps should give distinct queries")
	}
}

func TestInstanceRunExactness(t *testing.T) {
	in := NewInstance(9, 4, 500)
	q := in.Query(9, 0)
	res, met, _, err := in.Run(q, 50, 0, 1, Algos[0], core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds == 0 {
		t.Errorf("expected communication")
	}
	if res.Boundary.ID == 0 {
		t.Errorf("boundary not set: %+v", res)
	}
	if met.CriticalCompute <= 0 {
		t.Errorf("MeasureCompute must be on in harness runs")
	}
}
