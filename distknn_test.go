package distknn

import (
	"math"
	"sort"
	"testing"

	"distknn/internal/points"
	"distknn/internal/xrand"
)

func scalarFixture(t *testing.T, n int, opts Options) (*Cluster[Scalar], []uint64, []float64) {
	t.Helper()
	rng := xrand.New(1234)
	values := make([]uint64, n)
	labels := make([]float64, n)
	for i := range values {
		values[i] = rng.Uint64N(points.PaperDomain)
		labels[i] = float64(i % 3)
	}
	c, err := NewScalarCluster(values, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close) // idempotent; tests may also Close explicitly
	return c, values, labels
}

// bruteScalar computes the oracle answer on the raw slices.
func bruteScalar(values []uint64, labels []float64, q uint64, l int) []Item {
	type pair struct {
		d  uint64
		id uint64
		lb float64
	}
	ps := make([]pair, len(values))
	for i, v := range values {
		d := v - q
		if q > v {
			d = q - v
		}
		ps[i] = pair{d, uint64(i) + 1, labels[i]}
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].d != ps[b].d {
			return ps[a].d < ps[b].d
		}
		return ps[a].id < ps[b].id
	})
	out := make([]Item, l)
	for i := 0; i < l; i++ {
		out[i] = Item{Key: Key{Dist: ps[i].d, ID: ps[i].id}, Label: ps[i].lb}
	}
	return out
}

func TestKNNMatchesOracleAcrossAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{Alg2, Direct, Simple, SaukasSong, BinSearch} {
		t.Run(algo.String(), func(t *testing.T) {
			c, values, labels := scalarFixture(t, 300, Options{Machines: 6, Seed: 7, Algorithm: algo})
			q := uint64(999999)
			got, stats, err := c.KNN(Scalar(q), 20)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteScalar(values, labels, q, 20)
			if len(got) != 20 {
				t.Fatalf("got %d items", len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
			if stats.Rounds == 0 || stats.Messages == 0 {
				t.Errorf("stats not populated: %+v", stats)
			}
			if stats.Boundary != want[19].Key {
				t.Errorf("boundary %v, want %v", stats.Boundary, want[19].Key)
			}
		})
	}
}

func TestClusterDeterministicReplay(t *testing.T) {
	run := func() ([]Item, *QueryStats) {
		c, _, _ := scalarFixture(t, 200, Options{Machines: 4, Seed: 42})
		items, stats, err := c.KNN(Scalar(5), 10)
		if err != nil {
			t.Fatal(err)
		}
		return items, stats
	}
	a, sa := run()
	b, sb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
	if sa.Rounds != sb.Rounds || sa.Messages != sb.Messages {
		t.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
}

func TestSuccessiveQueriesUseFreshRandomness(t *testing.T) {
	c, values, labels := scalarFixture(t, 300, Options{Machines: 4, Seed: 3})
	for rep := 0; rep < 5; rep++ {
		q := uint64(rep * 1000003)
		got, _, err := c.KNN(Scalar(q), 7)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteScalar(values, labels, q, 7)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rep %d rank %d mismatch", rep, i)
			}
		}
	}
}

func TestClassifyAndRegress(t *testing.T) {
	// Labels: values below 2^31 get label 1, others label 2. A query at 0
	// must classify 1; regression near 1.
	values := make([]uint64, 200)
	labels := make([]float64, 200)
	rng := xrand.New(5)
	for i := range values {
		values[i] = rng.Uint64N(points.PaperDomain)
		if values[i] < 1<<31 {
			labels[i] = 1
		} else {
			labels[i] = 2
		}
	}
	c, err := NewScalarCluster(values, labels, Options{Machines: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	label, stats, err := c.Classify(Scalar(0), 15)
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Errorf("Classify = %g, want 1", label)
	}
	if stats.Rounds == 0 {
		t.Errorf("classify stats empty")
	}
	mean, _, err := c.Regress(Scalar(0), 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-1) > 1e-9 {
		t.Errorf("Regress = %g, want 1", mean)
	}
}

// TestLabelFoldsCostWhatKNNCosts pins the cost convention of the label
// folds: Classify and Regress run KNN's query and fold the machines' winner
// shares in place, charging no rounds for the labels, just as KNN charges
// none for collecting the winners. So on twin clusters (same data, same
// seed, hence the same first query seed) their QueryStats equal KNN's.
func TestLabelFoldsCostWhatKNNCosts(t *testing.T) {
	const l = 12
	q := Scalar(123456789)
	twin := func() *Cluster[Scalar] {
		c, _, _ := scalarFixture(t, 300, Options{Machines: 5, Seed: 31})
		return c
	}
	_, want, err := twin().KNN(q, l)
	if err != nil {
		t.Fatal(err)
	}
	_, classify, err := twin().Classify(q, l)
	if err != nil {
		t.Fatal(err)
	}
	_, regress, err := twin().Regress(q, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		op    string
		stats *QueryStats
	}{{"Classify", classify}, {"Regress", regress}} {
		if *got.stats != *want {
			t.Errorf("%s cost %+v, KNN cost %+v", got.op, *got.stats, *want)
		}
	}
}

func TestVectorCluster(t *testing.T) {
	rng := xrand.New(11)
	vecs := make([]Vector, 150)
	labels := make([]float64, 150)
	for i := range vecs {
		vecs[i] = Vector{rng.Float64(), rng.Float64()}
		labels[i] = float64(i % 2)
	}
	c, err := NewVectorCluster(vecs, labels, Options{Machines: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := c.KNN(Vector{0.5, 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against a points.Set oracle.
	set, _ := points.NewSet(vecs, labels, points.L2, 1)
	want := set.BruteKNN(Vector{0.5, 0.5}, 5)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestInvalidArguments(t *testing.T) {
	c, _, _ := scalarFixture(t, 50, Options{Machines: 4, Seed: 21})
	if _, _, err := c.KNN(Scalar(1), 0); err == nil {
		t.Errorf("l=0 must fail")
	}
	if _, _, err := c.KNN(Scalar(1), 51); err == nil {
		t.Errorf("l>n must fail")
	}
	if _, _, err := c.Classify(Scalar(1), 0); err == nil {
		t.Errorf("classify l=0 must fail")
	}
	if _, _, err := c.Regress(Scalar(1), 999); err == nil {
		t.Errorf("regress l>n must fail")
	}
	empty, err := NewScalarCluster(nil, nil, Options{Machines: 2})
	if err != nil {
		t.Errorf("empty cluster should build (queries will fail): %v", err)
	} else {
		empty.Close()
	}
}

func TestClusterAccessors(t *testing.T) {
	c, _, _ := scalarFixture(t, 100, Options{Machines: 7, Seed: 23})
	if c.Len() != 100 || c.Machines() != 7 {
		t.Errorf("Len=%d Machines=%d", c.Len(), c.Machines())
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		Alg2: "alg2", Direct: "direct", Simple: "simple",
		SaukasSong: "saukas-song", BinSearch: "binsearch", Algorithm(9): "algorithm(9)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	c, err := NewScalarCluster([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Machines() != 4 {
		t.Errorf("default machines = %d, want 4", c.Machines())
	}
	got, _, err := c.KNN(Scalar(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Key.Dist != 1 {
		t.Errorf("KNN on defaults: %+v", got)
	}
}

func TestVectorClusterTreeMatchesScan(t *testing.T) {
	// The kd-tree-backed local search must give results identical to the
	// generic scan path on the same data and seed.
	rng := xrand.New(61)
	vecs := make([]Vector, 400)
	for i := range vecs {
		vecs[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	treeC, err := NewVectorCluster(vecs, nil, Options{Machines: 5, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	defer treeC.Close()
	scanC, err := NewCluster(vecs, nil, points.L2, Options{Machines: 5, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	defer scanC.Close()
	for rep := 0; rep < 3; rep++ {
		q := Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		a, _, err := treeC.KNN(q, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := scanC.KNN(q, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rep %d rank %d: tree %+v != scan %+v", rep, i, a[i], b[i])
			}
		}
	}
}

func TestVectorClusterRejectsMixedDims(t *testing.T) {
	if _, err := NewVectorCluster([]Vector{{1, 2}, {1}}, nil, Options{Machines: 1}); err == nil {
		t.Errorf("mixed-dimension vectors must be rejected at construction")
	}
}
