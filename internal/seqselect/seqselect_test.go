package seqselect

import (
	"testing"
	"testing/quick"

	"distknn/internal/keys"
	"distknn/internal/xrand"
)

func randomKeys(seed uint64, n int, maxDist uint64) []keys.Key {
	rng := xrand.New(seed)
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key{Dist: rng.Uint64N(maxDist), ID: uint64(i) + 1}
	}
	return ks
}

func TestSortSelectSmall(t *testing.T) {
	ks := []keys.Key{{Dist: 5, ID: 1}, {Dist: 1, ID: 2}, {Dist: 3, ID: 3}}
	if got := SortSelect(ks, 1); got.Dist != 1 {
		t.Errorf("rank 1 = %v", got)
	}
	if got := SortSelect(ks, 2); got.Dist != 3 {
		t.Errorf("rank 2 = %v", got)
	}
	if got := SortSelect(ks, 3); got.Dist != 5 {
		t.Errorf("rank 3 = %v", got)
	}
}

func TestSortSelectDoesNotMutate(t *testing.T) {
	ks := []keys.Key{{Dist: 5, ID: 1}, {Dist: 1, ID: 2}}
	SortSelect(ks, 1)
	if ks[0].Dist != 5 {
		t.Errorf("SortSelect mutated its input")
	}
}

func TestQuickSelectMatchesOracle(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		ks := randomKeys(uint64(trial), 1+trial*7, 1000)
		l := 1 + rng.IntN(len(ks))
		want := SortSelect(ks, l)
		got := QuickSelect(append([]keys.Key(nil), ks...), l, rng)
		if got != want {
			t.Fatalf("trial %d: QuickSelect rank %d = %v, want %v", trial, l, got, want)
		}
	}
}

func TestMedianOfMediansMatchesOracle(t *testing.T) {
	rng := xrand.New(8)
	for trial := 0; trial < 50; trial++ {
		ks := randomKeys(uint64(trial)+100, 1+trial*7, 1000)
		l := 1 + rng.IntN(len(ks))
		want := SortSelect(ks, l)
		got := MedianOfMedians(append([]keys.Key(nil), ks...), l)
		if got != want {
			t.Fatalf("trial %d: MedianOfMedians rank %d = %v, want %v", trial, l, got, want)
		}
	}
}

func TestSelectionWithHeavyDuplicates(t *testing.T) {
	// Many equal distances: tie-breaking by ID must still give a unique answer.
	rng := xrand.New(9)
	ks := make([]keys.Key, 500)
	for i := range ks {
		ks[i] = keys.Key{Dist: uint64(i % 3), ID: uint64(i) + 1}
	}
	for _, l := range []int{1, 2, 167, 250, 500} {
		want := SortSelect(ks, l)
		gotQ := QuickSelect(append([]keys.Key(nil), ks...), l, rng)
		gotM := MedianOfMedians(append([]keys.Key(nil), ks...), l)
		if gotQ != want || gotM != want {
			t.Fatalf("l=%d: quick=%v mom=%v want=%v", l, gotQ, gotM, want)
		}
	}
}

func TestSelectionSingleElement(t *testing.T) {
	ks := []keys.Key{{Dist: 42, ID: 1}}
	rng := xrand.New(1)
	if QuickSelect(ks, 1, rng).Dist != 42 || MedianOfMedians(ks, 1).Dist != 42 {
		t.Errorf("single-element selection broken")
	}
}

func TestSelectionSortedAndReversedInputs(t *testing.T) {
	rng := xrand.New(10)
	n := 200
	asc := make([]keys.Key, n)
	desc := make([]keys.Key, n)
	for i := 0; i < n; i++ {
		asc[i] = keys.Key{Dist: uint64(i), ID: uint64(i + 1)}
		desc[i] = keys.Key{Dist: uint64(n - i), ID: uint64(i + 1)}
	}
	for _, l := range []int{1, 100, 200} {
		if got := QuickSelect(append([]keys.Key(nil), asc...), l, rng); got.Dist != uint64(l-1) {
			t.Errorf("ascending l=%d: %v", l, got)
		}
		if got := MedianOfMedians(append([]keys.Key(nil), desc...), l); got.Dist != uint64(l) {
			t.Errorf("descending l=%d: %v", l, got)
		}
	}
}

func TestRankPanics(t *testing.T) {
	for _, f := range []func(){
		func() { SortSelect([]keys.Key{{Dist: 1, ID: 1}}, 0) },
		func() { SortSelect([]keys.Key{{Dist: 1, ID: 1}}, 2) },
		func() { QuickSelect(nil, 1, xrand.New(1)) },
		func() { MedianOfMedians(nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected rank panic")
				}
			}()
			f()
		}()
	}
}

// Property: all three selection algorithms agree on random inputs.
func TestSelectionAgreementProperty(t *testing.T) {
	rng := xrand.New(11)
	prop := func(dists []uint64, rawL uint16) bool {
		if len(dists) == 0 {
			return true
		}
		ks := make([]keys.Key, len(dists))
		for i, d := range dists {
			ks[i] = keys.Key{Dist: d, ID: uint64(i) + 1}
		}
		l := int(rawL)%len(ks) + 1
		want := SortSelect(ks, l)
		q := QuickSelect(append([]keys.Key(nil), ks...), l, rng)
		m := MedianOfMedians(append([]keys.Key(nil), ks...), l)
		return q == want && m == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("selection algorithms disagree: %v", err)
	}
}

func TestCountInRangeHalfOpen(t *testing.T) {
	ks := []keys.Key{{Dist: 1, ID: 1}, {Dist: 2, ID: 2}, {Dist: 3, ID: 3}}
	lo := keys.Key{Dist: 1, ID: 1}
	hi := keys.Key{Dist: 3, ID: 3}
	// (lo, hi] excludes lo itself and includes hi.
	if got := CountInRange(ks, lo, hi); got != 2 {
		t.Errorf("CountInRange = %d, want 2", got)
	}
	if got := CountInRange(ks, keys.MinKey, keys.MaxKey); got != 3 {
		t.Errorf("full-range count = %d, want 3", got)
	}
}

// The ≤-bound count that getSize(·) in Algorithm 1 asks of every machine is
// CountInRange from MinKey. randomKeys' IDs start at 1, so no key equals
// MinKey and (MinKey, bound] is everything ≤ bound.
func TestCountLessEq(t *testing.T) {
	ks := randomKeys(12, 100, 50)
	bound := keys.Key{Dist: 25, ID: 0}
	want := 0
	for _, k := range ks {
		if k.LessEq(bound) {
			want++
		}
	}
	if got := CountInRange(ks, keys.MinKey, bound); got != want {
		t.Errorf("CountInRange(MinKey, %v) = %d, want %d", bound, got, want)
	}
}

func TestFilterLessEq(t *testing.T) {
	ks := []keys.Key{{Dist: 5, ID: 1}, {Dist: 1, ID: 2}, {Dist: 3, ID: 3}}
	got := FilterLessEq(ks, keys.Key{Dist: 3, ID: 3})
	if len(got) != 2 {
		t.Fatalf("FilterLessEq kept %d keys, want 2", len(got))
	}
	if got[0].Dist != 1 && got[1].Dist != 1 {
		t.Errorf("FilterLessEq lost the minimum: %v", got)
	}
}

// Property: the count of keys ≤ the rank-l key is l, i.e. selection and
// counting are mutually consistent — the exact invariant Algorithm 1's
// termination relies on. randomKeys' IDs start at 1, so no key equals
// MinKey and (MinKey, kth] holds every key ≤ kth.
func TestSelectCountConsistency(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 30; trial++ {
		ks := randomKeys(uint64(trial)+500, 200, 1<<40)
		l := 1 + rng.IntN(len(ks))
		kth := SortSelect(ks, l)
		if got := CountInRange(ks, keys.MinKey, kth); got != l {
			t.Fatalf("count(≤ rank-%d key) = %d, want %d (keys must be distinct)", l, got, l)
		}
	}
}

func BenchmarkQuickSelect(b *testing.B) {
	ks := randomKeys(1, 1<<16, 1<<40)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]keys.Key(nil), ks...)
		QuickSelect(cp, len(cp)/2, rng)
	}
}

func BenchmarkMedianOfMedians(b *testing.B) {
	ks := randomKeys(1, 1<<16, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]keys.Key(nil), ks...)
		MedianOfMedians(cp, len(cp)/2)
	}
}
