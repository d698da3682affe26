package points

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"distknn/internal/xrand"
)

// scanSizes straddle the block boundaries of the scan: nothing, one point,
// one short of a block, a block, one over, and several blocks with a ragged
// tail.
var scanSizes = []int{0, 1, scanBlock - 1, scanBlock, scanBlock + 1, 3*scanBlock + 7}

// checkScan holds TopLItems to BruteKNN item for item, for l around n, on a
// set whose IDs are shuffled so that among points at one distance the lower
// IDs arrive in no particular order.
func checkScan[P any](t *testing.T, name string, pts []P, metric Metric[P], q P) {
	t.Helper()
	n := len(pts)
	labels := make([]float64, n)
	for i := range labels {
		labels[i] = float64(i)
	}
	set, err := NewSet(pts, labels, metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	xrand.New(uint64(n)).Shuffle(n, func(i, j int) { set.IDs[i], set.IDs[j] = set.IDs[j], set.IDs[i] })
	for _, l := range []int{1, n - 1, n, n + 1} {
		got, want := set.TopLItems(q, l), set.BruteKNN(q, max(l, 0))
		if len(got) != len(want) {
			t.Fatalf("%s n=%d l=%d: %d items, want %d", name, n, l, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s n=%d l=%d rank %d: %+v, want %+v", name, n, l, i, got[i], want[i])
			}
		}
	}
}

// tiedPoints draws every coordinate of n scalars and n vectors from a
// handful of values, so each query sees a few distinct distances shared by
// hundreds of points — many of them duplicate points.
func tiedPoints(n int) ([]Scalar, []Vector) {
	rng := xrand.New(uint64(n) + 1)
	scalars := make([]Scalar, n)
	vectors := make([]Vector, n)
	for i := 0; i < n; i++ {
		scalars[i] = Scalar(rng.Uint64N(8))
		vectors[i] = Vector{float64(rng.IntN(3)), float64(rng.IntN(3)), float64(rng.IntN(3)), float64(rng.IntN(2)), float64(rng.IntN(2))}
	}
	return scalars, vectors
}

// TestTopLItemsMatchesBruteKNNEveryMetric holds the scan to the oracle on
// tied points, so the cutoff always falls inside a run of ties.
func TestTopLItemsMatchesBruteKNNEveryMetric(t *testing.T) {
	for _, n := range scanSizes {
		scalars, vectors := tiedPoints(n)
		checkScan(t, "Scalar", scalars, ScalarMetric, Scalar(3))
		q := Vector{1, 0, 2, 1, 0}
		checkScan(t, "L2", vectors, L2, q)
		checkScan(t, "L1", vectors, L1, q)
		checkScan(t, "LInf", vectors, LInf, q)
		checkScan(t, "Cosine", vectors, Cosine, q)
	}
}

// checkScanCeiling holds TopLItems with a ceiling to the ceiling oracle —
// the first min(l, #keys below ceil) keys of the full sort — for l around
// n and every kind of ceiling.
func checkScanCeiling[P any](t *testing.T, name string, pts []P, metric Metric[P], q P) {
	t.Helper()
	set, err := NewSet(pts, nil, metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := len(pts)
	xrand.New(uint64(n)).Shuffle(n, func(i, j int) { set.IDs[i], set.IDs[j] = set.IDs[j], set.IDs[i] })
	sorted := set.BruteKNN(q, n)
	for _, ceil := range ceilingsFor(sorted) {
		for _, l := range []int{1, n / 2, n, n + 1} {
			got, want := set.TopLItems(q, l, ceil), belowCeil(sorted, l, ceil)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d l=%d ceil=%v: %d items, want %d", name, n, l, ceil, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d l=%d ceil=%v rank %d: %+v, want %+v", name, n, l, ceil, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopLItemsCeilingEveryMetric runs the ceiling property for every
// shipped metric over the tied points, across the scan's block boundaries.
func TestTopLItemsCeilingEveryMetric(t *testing.T) {
	for _, n := range scanSizes {
		scalars, vectors := tiedPoints(n)
		checkScanCeiling(t, "Scalar", scalars, ScalarMetric, Scalar(3))
		q := Vector{1, 0, 2, 1, 0}
		checkScanCeiling(t, "L2", vectors, L2, q)
		checkScanCeiling(t, "L1", vectors, L1, q)
		checkScanCeiling(t, "LInf", vectors, LInf, q)
		checkScanCeiling(t, "Cosine", vectors, Cosine, q)
	}
}

// TestTopLItemsTieAtCutoff pins the admission rule at the cutoff itself:
// once l points are held, a point at the cutoff's distance gets in only
// with a lower ID than the cutoff's, wherever in the scan it arrives.
func TestTopLItemsTieAtCutoff(t *testing.T) {
	// Every point is at distance 5 from the query except one nearer point.
	pts := []Scalar{15, 5, 15, 5, 9, 15, 5}
	set, err := NewSet(pts, nil, ScalarMetric, 1)
	if err != nil {
		t.Fatal(err)
	}
	copy(set.IDs, []uint64{40, 60, 20, 50, 70, 30, 10})
	got := set.TopLItems(Scalar(10), 3)
	// After {40, 60, 20} fill the heap the cutoff is ID 60: 50 evicts it,
	// 70 (nearer) evicts 50, 30 evicts 40, 10 evicts 30.
	want := []uint64{70, 10, 20}
	for i, it := range got {
		if it.Key.ID != want[i] {
			t.Fatalf("rank %d: ID %d, want %d (got %+v)", i, it.Key.ID, want[i], got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("kept %d items, want %d", len(got), len(want))
	}
}

// TestBatchKernelsMatchMetrics holds every batch kernel — the two written
// by hand and the adaptor behind the other shipped metrics — to its
// per-pair metric bit for bit, on random inputs and on the inputs each
// kernel could plausibly get wrong.
func TestBatchKernelsMatchMetrics(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))

	scalars := []Scalar{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}
	for i := 0; i < 2000; i++ {
		scalars = append(scalars, Scalar(rng.Uint64()))
	}
	for _, q := range []Scalar{0, math.MaxUint64, 1 << 63, Scalar(rng.Uint64())} {
		checkBatch(t, "Scalar", scalars, ScalarMetric, q)
	}

	// Short and long vectors, with magnitudes mixed so that one reordered
	// add would flip a low-order bit.
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129, 130} {
		vectors := make([]Vector, 64)
		for i := range vectors {
			vectors[i] = make(Vector, dim)
			for j := range vectors[i] {
				vectors[i][j] = (rng.Float64()*2 - 1) * []float64{1e-8, 1, 1e8}[rng.IntN(3)]
			}
		}
		vectors = append(vectors, make(Vector, dim)) // the zero vector: Cosine's special cases
		for _, q := range []Vector{vectors[0], make(Vector, dim)} {
			checkBatch(t, "L2", vectors, L2, q)
			checkBatch(t, "L1", vectors, L1, q)
			checkBatch(t, "LInf", vectors, LInf, q)
			checkBatch(t, "Cosine", vectors, Cosine, q)
		}
	}
}

func checkBatch[P any](t *testing.T, name string, pts []P, metric Metric[P], q P) {
	t.Helper()
	out := make([]uint64, len(pts))
	BatchOf(metric)(pts, q, out)
	for i, p := range pts {
		if want := metric(p, q); out[i] != want {
			t.Fatalf("%s: kernel out[%d] = %d, metric = %d (point %v, query %v)", name, i, out[i], want, p, q)
		}
	}
}

// TestBatchOfRecognisesShippedMetrics: a miss would cost only speed, so no
// answer-checking test could see one.
func TestBatchOfRecognisesShippedMetrics(t *testing.T) {
	pc := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	if pc(BatchOf(ScalarMetric)) != pc(scalarBatch) {
		t.Errorf("ScalarMetric did not get the scalar kernel")
	}
	if pc(BatchOf(L2)) != pc(l2Batch) {
		t.Errorf("L2 did not get the L2 kernel")
	}
	for name, m := range map[string]Metric[Vector]{
		"L1":         L1,
		"wrapped L2": func(a, b Vector) uint64 { return L2(a, b) },
	} {
		if got := pc(BatchOf(m)); got == pc(l2Batch) {
			t.Errorf("%s got the L2 kernel", name)
		}
	}

	// The top-ℓ scan is recognised the same way, and by the metric alone:
	// a Set[Scalar] over a closure wrapping ScalarMetric gets the adaptor
	// and the same answers.
	scalars, _ := tiedPoints(3*scanBlock + 7)
	set, err := NewSet(scalars, nil, ScalarMetric, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pc(set.topL) != pc(scalarTopL) {
		t.Errorf("ScalarMetric did not get the scalar top-ℓ scan")
	}
	parts, err := Partition(set, 3, PartitionRandom, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range append(parts, Merge(parts)) {
		if pc(part.topL) != pc(scalarTopL) {
			t.Errorf("part %d of a ScalarMetric set lost the scalar top-ℓ scan", i)
		}
	}
	wrapped, err := NewSet(scalars, nil, func(a, b Scalar) uint64 { return ScalarMetric(a, b) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pc(wrapped.topL) == pc(scalarTopL) {
		t.Errorf("wrapped ScalarMetric got the scalar top-ℓ scan")
	}
	for _, q := range []Scalar{0, 3, 7, math.MaxUint64} {
		for _, l := range []int{1, 100, len(scalars)} {
			got, want := wrapped.TopLItems(q, l), set.TopLItems(q, l)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%d l=%d: adaptor and scalar scan disagree", q, l)
			}
		}
	}
}

// TestTopLItemsClampsL: l is validated upstream against the summed shard
// sizes only, so a shard can be asked for far more than it holds; it must
// then reserve for what it holds.
func TestTopLItemsClampsL(t *testing.T) {
	const n = 100
	set := GenUniformScalars(xrand.New(3), n, PaperDomain)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := set.TopLItems(Scalar(1<<31), 3<<20)
	runtime.ReadMemStats(&after)
	if len(got) != n {
		t.Fatalf("kept %d items, want all %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Key.Less(got[i].Key) {
			t.Fatalf("rank %d out of order: %v then %v", i, got[i-1].Key, got[i].Key)
		}
	}
	// n Items, at worst one fresh distance block, and room for the
	// runtime's own allocations (TotalAlloc is process-wide); reserving l
	// slots would take 72 MiB.
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*24+scanBlock*8+64<<10); grew > limit {
		t.Errorf("l = 3·2²⁰ over %d points allocated %d bytes, want at most %d", n, grew, limit)
	}
}

// TestTopLItemsAllocatesOnlyTheResult pins both scans, ScalarMetric's
// value window and the block adaptor, at one allocation per call — the
// returned slice.
func TestTopLItemsAllocatesOnlyTheResult(t *testing.T) {
	set := GenUniformScalars(xrand.New(4), 4*scanBlock+9, PaperDomain)
	if allocs := testing.AllocsPerRun(100, func() { set.TopLItems(Scalar(1<<31), 64) }); allocs != 1 {
		t.Errorf("scalar TopLItems made %v allocations per call, want 1", allocs)
	}
	vectors, err := NewSet(GenUniformVectors(xrand.New(4), 4*scanBlock+9, 3).Pts, nil, L1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := Vector{0.25, 0.5, 0.75}
	if allocs := testing.AllocsPerRun(100, func() { vectors.TopLItems(q, 64) }); allocs != 1 {
		t.Errorf("L1 TopLItems made %v allocations per call, want 1", allocs)
	}
}

// BenchmarkTopLScan times one local top-ℓ pass at ℓ = 256 over the shard
// shapes the serving stack scans: the paper's scalar shard (the shape of
// knnperf's points.topl_scan_ms probe) and a low-dimensional L1 shard
// through the adaptor.
func BenchmarkTopLScan(b *testing.B) {
	const l = 256
	b.Run("Scalar", func(b *testing.B) {
		set := GenUniformScalars(xrand.New(1), 1<<20, PaperDomain)
		rng := xrand.New(2)
		b.ReportAllocs()
		for b.Loop() {
			set.TopLItems(Scalar(rng.Uint64N(PaperDomain)), l)
		}
	})
	b.Run("L1", func(b *testing.B) {
		uniform := GenUniformVectors(xrand.New(1), 1<<16, 3)
		set, err := NewSet(uniform.Pts, nil, L1, 1)
		if err != nil {
			b.Fatal(err)
		}
		q := Vector{0.25, 0.5, 0.75}
		b.ReportAllocs()
		for b.Loop() {
			set.TopLItems(q, l)
		}
	})
}
