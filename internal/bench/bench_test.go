package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"distknn/internal/core"
)

func quickParams() Params {
	return Params{Seed: 42, Quick: true}
}

var update = flag.Bool("update", false, "rewrite testdata/quick.golden.json from this tree")

const goldenPath = "testdata/quick.golden.json"

// wallClockColumns are the cells of the seed-1 quick tables that measure
// this host rather than the protocol; the golden blanks them.
var wallClockColumns = map[string][]string{
	"E1": {"time_ratio", "alg2_ms", "simple_ms"},
	"E7": {"modeled_ms"},
	"E8": {"critical_ms", "modeled_ms", "compute_speedup", "modeled_speedup"},
}

// blankWallClock empties every wall-clock cell of tb in place.
func blankWallClock(tb *Table) {
	for _, name := range wallClockColumns[tb.ID] {
		for c, h := range tb.Header {
			if h != name {
				continue
			}
			for _, row := range tb.Rows {
				row[c] = ""
			}
		}
	}
}

// TestEveryExperimentRunsQuick runs E1–E9 at knnbench's -seed 1 -quick and
// compares every table, wall-clock columns blanked, against the committed
// golden: a change that moves a round, message, byte, iteration, survivor
// or fallback count fails here until the golden is regenerated with
// go test ./internal/bench -run TestEveryExperimentRunsQuick -update.
func TestEveryExperimentRunsQuick(t *testing.T) {
	var golden map[string][]*Table
	if !*update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string][]*Table)
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Params{Seed: 1, Quick: true})
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
				blankWallClock(tb)
			}
			got[e.ID] = tables
			if *update {
				return
			}
			want, _ := json.MarshalIndent(golden[e.ID], "", "  ")
			have, _ := json.MarshalIndent(tables, "", "  ")
			if !bytes.Equal(want, have) {
				t.Errorf("%s differs from %s (regenerate with -update and explain the diff):\ngot  %s\nwant %s",
					e.ID, goldenPath, have, want)
			}
		})
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
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
	res, met, err := in.Run(q, 50, 0, 1, core.Alg2, core.Config{})
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
