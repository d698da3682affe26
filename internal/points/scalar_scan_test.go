package points

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/xrand"
)

// edgeScalars are the ends of the Scalar range, where the value window
// [q−c, q+c] would wrap without its clamps.
var edgeScalars = []Scalar{0, 1, math.MaxUint64 - 1, math.MaxUint64}

// scalarSet builds a ScalarMetric set over vals whose point i carries
// ids[i], labelled with its position so a test can tell labels travel with
// their keys, and fails unless it scans with scalarTopL.
func scalarSet(t testing.TB, vals []Scalar, ids []uint64) *Set[Scalar] {
	t.Helper()
	labels := make([]float64, len(vals))
	for i := range labels {
		labels[i] = float64(i)
	}
	set, err := NewSet(vals, labels, ScalarMetric, 1)
	if err != nil {
		t.Fatal(err)
	}
	copy(set.IDs, ids)
	if pc := reflect.ValueOf(set.topL).Pointer(); pc != reflect.ValueOf(scalarTopL).Pointer() {
		t.Fatalf("ScalarMetric set does not scan with scalarTopL")
	}
	return set
}

// checkScalarTopL holds TopLItems on set to the ceiling oracle — the first
// min(l, #keys below ceil) keys of BruteKNN — and returns both answers and
// whether they agree item for item.
func checkScalarTopL(set *Set[Scalar], q Scalar, l int, ceil keys.Key) (got, want []Item, ok bool) {
	got = set.TopLItems(q, l, ceil)
	want = belowCeil(set.BruteKNN(q, set.Len()), l, ceil)
	if len(got) != len(want) {
		return got, want, false
	}
	for i := range got {
		if got[i] != want[i] {
			return got, want, false
		}
	}
	return got, want, true
}

func assertScalarTopL(t *testing.T, set *Set[Scalar], q Scalar, l int, ceil keys.Key) {
	t.Helper()
	if got, want, ok := checkScalarTopL(set, q, l, ceil); !ok {
		t.Fatalf("q=%d l=%d ceil=%v over %v (IDs %v):\n got %+v\nwant %+v", q, l, ceil, set.Pts, set.IDs, got, want)
	}
}

// TestScalarTopLRangeEdges puts points and queries at both ends of the
// full Scalar range, not only the paper's 32-bit domain, so that a window
// end computed without its clamp wraps: an unclamped q + c drops the
// points above q, an unclamped q − c the points below it.
func TestScalarTopLRangeEdges(t *testing.T) {
	vals := append(append([]Scalar(nil), edgeScalars...), 1<<63, 1<<32, math.MaxUint64/3)
	ids := []uint64{7, 3, 5, 1, 6, 2, 4}
	set := scalarSet(t, vals, ids)
	queries := append(append([]Scalar(nil), edgeScalars...), 1<<63, 2, math.MaxUint64-2)
	for _, q := range queries {
		for l := 1; l <= len(vals)+1; l++ {
			assertScalarTopL(t, set, q, l, keys.MaxKey)
		}
	}
}

// TestScalarTopLTiesBreakOnID fills the set with duplicate values carrying
// permuted, non-sequential IDs, so that the ℓ-th key nearly always sits in
// a run of equal distances and the window's ends are themselves values:
// the scan must admit a point on the window's edge and break the tie on
// ID, wherever the lower ID arrives.
func TestScalarTopLTiesBreakOnID(t *testing.T) {
	const n = 300
	rng := xrand.New(9)
	vals := make([]Scalar, n)
	ids := make([]uint64, n)
	for i := range vals {
		vals[i] = []Scalar{0, 1, 40, 50, 60, 100, math.MaxUint64 - 1, math.MaxUint64}[rng.IntN(8)]
		ids[i] = uint64(i)*7919 + 11
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	set := scalarSet(t, vals, ids)
	// 50 sees 40 and 60 at one distance: the window's two ends tie.
	for _, q := range []Scalar{50, 0, 1, 45, math.MaxUint64, math.MaxUint64 - 1, 1 << 63} {
		for _, l := range []int{1, 2, 17, 37, 38, 39, 120, n - 1} {
			assertScalarTopL(t, set, q, l, keys.MaxKey)
		}
	}
}

// TestScalarTopLCeiling runs the bounded gather wave's ceiling through the
// window scan: MinKey, ceilings on a value's distance whose ID falls
// before, on and after that value's IDs (a ceiling that ties a value), a
// ceiling at the maximum distance, and one between two distances. The
// points at the ceiling's distance come first in the scan and again last,
// so the window must admit them both before the first push and after it.
func TestScalarTopLCeiling(t *testing.T) {
	vals := []Scalar{12, 8, 12, 8, 20, 0, math.MaxUint64, 10, 12, 15}
	ids := []uint64{10, 50, 30, 20, 70, 40, 60, 90, 80, 100}
	ceils := []keys.Key{
		keys.MinKey,
		{Dist: 0, ID: 90}, {Dist: 0, ID: 91},
		{Dist: 2, ID: 10}, {Dist: 2, ID: 20}, {Dist: 2, ID: 25}, {Dist: 2, ID: 80}, {Dist: 2, ID: 81},
		{Dist: 3, ID: 0},
		{Dist: math.MaxUint64 - 10, ID: 60}, {Dist: math.MaxUint64 - 10, ID: 61},
		{Dist: math.MaxUint64, ID: 0},
		keys.MaxKey,
	}
	rvals, rids := slices.Clone(vals), slices.Clone(ids)
	slices.Reverse(rvals)
	slices.Reverse(rids)
	for _, set := range []*Set[Scalar]{scalarSet(t, vals, ids), scalarSet(t, rvals, rids)} {
		for _, ceil := range ceils {
			for l := 1; l <= len(vals)+2; l++ {
				assertScalarTopL(t, set, 10, l, ceil)
			}
			// The same ceilings seen from the top of the range.
			for _, l := range []int{1, 3, len(vals)} {
				assertScalarTopL(t, set, math.MaxUint64, l, ceil)
			}
		}
	}
}

// TestScalarTopLLAtLeastN: with ℓ ≥ n the heap never fills, so the cut
// stays the ceiling for the whole pass — keys.MaxKey by default, whose
// distance is the whole range — and every point must come back.
func TestScalarTopLLAtLeastN(t *testing.T) {
	vals := []Scalar{math.MaxUint64, 0, 3, math.MaxUint64 - 1, 3, 1, 1 << 40}
	set := scalarSet(t, vals, []uint64{5, 9, 2, 8, 1, 7, 3})
	for _, q := range append(append([]Scalar(nil), edgeScalars...), 3, 1<<40, 1<<63) {
		for _, l := range []int{len(vals), len(vals) + 1, 1 << 20} {
			got := set.TopLItems(q, l)
			if len(got) != len(vals) {
				t.Fatalf("q=%d l=%d: kept %d items, want all %d", q, l, len(got), len(vals))
			}
			assertScalarTopL(t, set, q, l, keys.MaxKey)
		}
	}
}

// FuzzScalarTopL holds the window scan to BruteKNN on fuzzer-chosen values
// (eight little-endian bytes each, anywhere in the Scalar range), query, ℓ
// and ceiling. IDs are 1…n permuted by a fuzzer-chosen seed, so ties at
// the cut break on IDs in no particular order; they are never MaxKey's ID,
// which no real point may carry.
func FuzzScalarTopL(f *testing.F) {
	edges := make([]byte, 0, 8*len(edgeScalars))
	for _, v := range edgeScalars {
		edges = binary.LittleEndian.AppendUint64(edges, uint64(v))
	}
	dups := binary.LittleEndian.AppendUint64(append([]byte(nil), edges...), 1)
	dups = binary.LittleEndian.AppendUint64(dups, math.MaxUint64)
	dups = binary.LittleEndian.AppendUint64(dups, 0)
	for _, q := range []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64, 1 << 63} {
		f.Add(edges, q, uint16(2), false, uint64(0), uint64(0), uint64(1))
		f.Add(dups, q, uint16(3), false, uint64(0), uint64(0), uint64(2))
		f.Add(dups, q, uint16(100), true, uint64(1), uint64(4), uint64(3))
		f.Add(dups, q, uint16(4), true, uint64(math.MaxUint64), uint64(0), uint64(4))
	}
	f.Add([]byte{}, uint64(5), uint16(1), false, uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, q uint64, l uint16, hasCeil bool, ceilDist, ceilID, idSeed uint64) {
		n := min(len(raw)/8, 4096)
		vals := make([]Scalar, n)
		ids := make([]uint64, n)
		for i := range vals {
			vals[i] = Scalar(binary.LittleEndian.Uint64(raw[8*i:]))
			ids[i] = uint64(i) + 1
		}
		xrand.New(idSeed).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		set := scalarSet(t, vals, ids)
		ceil := keys.MaxKey
		if hasCeil {
			ceil = keys.Key{Dist: ceilDist, ID: ceilID}
		}
		if got, want, ok := checkScalarTopL(set, Scalar(q), int(l), ceil); !ok {
			t.Fatalf("q=%d l=%d ceil=%v over %v (IDs %v):\n got %+v\nwant %+v", q, l, ceil, vals, ids, got, want)
		}
	})
}
