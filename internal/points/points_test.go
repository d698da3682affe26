package points

import (
	"math"
	"testing"
	"testing/quick"

	"distknn/internal/keys"
	"distknn/internal/xrand"
)

func TestScalarMetricSymmetricExact(t *testing.T) {
	cases := []struct {
		a, b Scalar
		want uint64
	}{
		{0, 0, 0},
		{5, 2, 3},
		{2, 5, 3},
		{0, math.MaxUint64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := ScalarMetric(c.a, c.b); got != c.want {
			t.Errorf("ScalarMetric(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestScalarMetricProperties(t *testing.T) {
	symmetric := func(a, b uint64) bool {
		return ScalarMetric(Scalar(a), Scalar(b)) == ScalarMetric(Scalar(b), Scalar(a))
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a uint64) bool { return ScalarMetric(Scalar(a), Scalar(a)) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
}

func TestVectorMetrics(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}
	if got := keys.DecodeFloat(L2(a, b)); got != 25 {
		t.Errorf("L2 squared = %g, want 25", got)
	}
	if got := keys.DecodeFloat(L1(a, b)); got != 7 {
		t.Errorf("L1 = %g, want 7", got)
	}
	if got := keys.DecodeFloat(LInf(a, b)); got != 4 {
		t.Errorf("LInf = %g, want 4", got)
	}
}

func TestVectorMetricOrderAgreesWithEuclidean(t *testing.T) {
	rng := xrand.New(1)
	q := Vector{0.5, 0.5, 0.5}
	for trial := 0; trial < 500; trial++ {
		a := Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		b := Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		true2 := func(v Vector) float64 {
			var s float64
			for i := range v {
				d := v[i] - q[i]
				s += d * d
			}
			return math.Sqrt(s)
		}
		if (true2(a) < true2(b)) != (L2(a, q) < L2(b, q)) {
			t.Fatalf("L2 encoding changed order for %v vs %v", a, b)
		}
	}
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet([]Scalar{1}, nil, nil, 1); err == nil {
		t.Errorf("nil metric must be rejected")
	}
	if _, err := NewSet([]Scalar{1, 2}, []float64{1}, ScalarMetric, 1); err == nil {
		t.Errorf("label/point length mismatch must be rejected")
	}
	s, err := NewSet([]Scalar{10, 20}, nil, ScalarMetric, 7)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	if s.IDs[0] != 7 || s.IDs[1] != 8 {
		t.Errorf("sequential IDs wrong: %v", s.IDs)
	}
	if len(s.Labels) != 2 {
		t.Errorf("nil labels must default to zeros")
	}
}

func TestItemsAndBruteKNN(t *testing.T) {
	s, _ := NewSet([]Scalar{100, 50, 75, 200}, []float64{1, 2, 3, 4}, ScalarMetric, 1)
	got := s.BruteKNN(Scalar(60), 2)
	if len(got) != 2 {
		t.Fatalf("BruteKNN returned %d items", len(got))
	}
	// Distances from 60: 40, 10, 15, 140 → nearest are 50 (label 2), 75 (label 3).
	if got[0].Label != 2 || got[1].Label != 3 {
		t.Errorf("BruteKNN order wrong: %+v", got)
	}
	if got[0].Key.Dist != 10 || got[1].Key.Dist != 15 {
		t.Errorf("BruteKNN distances wrong: %+v", got)
	}
}

func TestBruteKNNClampsL(t *testing.T) {
	s, _ := NewSet([]Scalar{1, 2}, nil, ScalarMetric, 1)
	if got := s.BruteKNN(Scalar(0), 10); len(got) != 2 {
		t.Errorf("BruteKNN with l>n returned %d items, want 2", len(got))
	}
}

func TestGenerators(t *testing.T) {
	rng := xrand.New(9)
	us := GenUniformScalars(rng, 100, PaperDomain)
	if us.Len() != 100 {
		t.Fatalf("GenUniformScalars length")
	}
	for _, p := range us.Pts {
		if uint64(p) >= PaperDomain {
			t.Fatalf("scalar %d outside paper domain", p)
		}
	}
	uv := GenUniformVectors(rng, 50, 3)
	if uv.Len() != 50 || len(uv.Pts[0]) != 3 {
		t.Fatalf("GenUniformVectors shape")
	}
	gc, centers := GenGaussianClusters(rng, 200, 2, 4, 0.01)
	if len(centers) != 4 || gc.Len() != 200 {
		t.Fatalf("GenGaussianClusters shape")
	}
	for _, lb := range gc.Labels {
		if lb < 0 || lb > 3 || lb != math.Trunc(lb) {
			t.Fatalf("cluster label %g not an index", lb)
		}
	}
	rg := GenRegression1D(rng, 100, PaperDomain, 0.01)
	for i, lb := range rg.Labels {
		want := math.Sin(2 * math.Pi * float64(rg.Pts[i]) / float64(PaperDomain))
		if math.Abs(lb-want) > 0.1 {
			t.Fatalf("regression label %g too far from %g", lb, want)
		}
	}
}

func TestPartitionLossless(t *testing.T) {
	rng := xrand.New(11)
	for _, strat := range []Partitioner{PartitionRandom, PartitionSorted, PartitionSkewed} {
		s := GenUniformScalars(rng, 101, PaperDomain)
		parts, err := Partition(s, 7, strat, rng)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(parts) != 7 {
			t.Fatalf("%v: got %d parts", strat, len(parts))
		}
		merged := Merge(parts)
		if merged.Len() != s.Len() {
			t.Fatalf("%v: lost points: %d != %d", strat, merged.Len(), s.Len())
		}
		seen := make(map[uint64]Scalar)
		for i, id := range merged.IDs {
			seen[id] = merged.Pts[i]
		}
		for i, id := range s.IDs {
			if v, ok := seen[id]; !ok || v != s.Pts[i] {
				t.Fatalf("%v: point id=%d lost or corrupted", strat, id)
			}
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	rng := xrand.New(12)
	s := GenUniformScalars(rng, 103, PaperDomain)
	parts, err := Partition(s, 10, PartitionRandom, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if p.Len() != 10 && p.Len() != 11 {
			t.Errorf("machine %d has %d points, want 10 or 11", i, p.Len())
		}
	}
}

func TestPartitionSortedIsAdversarial(t *testing.T) {
	rng := xrand.New(13)
	s := GenUniformScalars(rng, 1000, PaperDomain)
	parts, err := Partition(s, 4, PartitionSorted, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every value on machine 0 must be <= every value on machine 3.
	var max0, min3 Scalar = 0, math.MaxUint64
	for _, p := range parts[0].Pts {
		if p > max0 {
			max0 = p
		}
	}
	for _, p := range parts[3].Pts {
		if p < min3 {
			min3 = p
		}
	}
	if max0 > min3 {
		t.Errorf("sorted partition not contiguous: max(machine0)=%d > min(machine3)=%d", max0, min3)
	}
}

func TestPartitionSkewedShape(t *testing.T) {
	rng := xrand.New(14)
	s := GenUniformScalars(rng, 64, PaperDomain)
	parts, err := Partition(s, 4, PartitionSkewed, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{32, 16, 8, 8}
	for i, p := range parts {
		if p.Len() != want[i] {
			t.Errorf("skewed sizes: machine %d has %d, want %d", i, p.Len(), want[i])
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	rng := xrand.New(15)
	s := GenUniformScalars(rng, 10, PaperDomain)
	if _, err := Partition(s, 0, PartitionRandom, rng); err == nil {
		t.Errorf("k=0 must error")
	}
	if _, err := Partition(s, 2, Partitioner(99), rng); err == nil {
		t.Errorf("unknown strategy must error")
	}
}

func TestPartitionerString(t *testing.T) {
	if PartitionRandom.String() != "random" || PartitionSorted.String() != "sorted" ||
		PartitionSkewed.String() != "skewed" {
		t.Errorf("Partitioner names wrong")
	}
	if Partitioner(42).String() == "" {
		t.Errorf("unknown partitioner must still render")
	}
}

func TestSortItems(t *testing.T) {
	items := []Item{
		{Key: keys.Key{Dist: 3, ID: 1}},
		{Key: keys.Key{Dist: 1, ID: 2}},
		{Key: keys.Key{Dist: 1, ID: 1}},
	}
	SortItems(items)
	if items[0].Key.ID != 1 || items[0].Key.Dist != 1 {
		t.Errorf("SortItems order wrong: %+v", items)
	}
	if items[1].Key.ID != 2 || items[2].Key.Dist != 3 {
		t.Errorf("SortItems order wrong: %+v", items)
	}
}

func TestTopLItemsMatchesBruteKNN(t *testing.T) {
	rng := xrand.New(21)
	s := GenUniformScalars(rng, 500, PaperDomain)
	q := Scalar(rng.Uint64N(PaperDomain))
	for _, l := range []int{1, 7, 100, 500, 600} {
		got := s.TopLItems(q, l)
		want := s.BruteKNN(q, l)
		if len(got) != len(want) {
			t.Fatalf("l=%d: %d items, want %d", l, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("l=%d rank %d: %+v != %+v", l, i, got[i], want[i])
			}
		}
	}
	if got := s.TopLItems(q, 0); got != nil {
		t.Errorf("l=0 must return nil")
	}
}
