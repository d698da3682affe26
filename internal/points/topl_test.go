package points

import (
	"sort"
	"testing"
	"testing/quick"

	"distknn/internal/keys"
	"distknn/internal/xrand"
)

// distItem is an item at distance d with ID id, labelled with its ID so a
// test can tell that labels travel with their keys.
func distItem(d, id uint64) Item {
	return Item{Key: keys.Key{Dist: d, ID: id}, Label: float64(id)}
}

func pushDists(top *TopL, dists ...uint64) {
	for i, d := range dists {
		top.Push(distItem(d, uint64(i+1)))
	}
}

func wantDists(t *testing.T, got []Item, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Sorted kept %d items, want %d", len(got), len(want))
	}
	for i, it := range got {
		if it.Key.Dist != want[i] || it.Label != float64(it.Key.ID) {
			t.Fatalf("Sorted[%d] = %+v, want distance %d with its own label", i, it, want[i])
		}
	}
}

func TestTopLKeepsSmallest(t *testing.T) {
	top := NewTopL(3)
	pushDists(&top, 9, 1, 8, 2, 7, 3)
	wantDists(t, top.Sorted(), 1, 2, 3)
}

func TestTopLUnderfilled(t *testing.T) {
	top := NewTopL(10)
	pushDists(&top, 5, 1)
	if cut := top.Cut(); cut != keys.MaxKey {
		t.Errorf("Cut with 2 of 10 held = %v, want MaxKey (everything is admitted)", cut)
	}
	wantDists(t, top.Sorted(), 1, 5)
}

func TestTopLPushReturnValue(t *testing.T) {
	top := NewTopL(2)
	if !top.Push(distItem(5, 10)) || !top.Push(distItem(3, 11)) {
		t.Fatalf("pushes into a non-full accumulator must be retained")
	}
	if cut := top.Cut(); cut != (keys.Key{Dist: 5, ID: 10}) {
		t.Fatalf("Cut = %v, want the largest retained key (5, 10)", cut)
	}
	if top.Push(distItem(7, 12)) {
		t.Errorf("7 must be rejected when {3, 5} are retained")
	}
	if top.Push(distItem(5, 10)) {
		t.Errorf("a key equal to the cutoff must be rejected (strict ordering)")
	}
	if top.Push(distItem(5, 13)) {
		t.Errorf("the cutoff's distance with a higher ID must be rejected")
	}
	if !top.Push(distItem(5, 9)) {
		t.Errorf("the cutoff's distance with a lower ID must evict it")
	}
	if !top.Push(distItem(1, 14)) {
		t.Errorf("1 must evict 5")
	}
	wantDists(t, top.Sorted(), 1, 3)
}

func TestTopLKeepsNothing(t *testing.T) {
	for _, l := range []int{0, -3} {
		top := NewTopL(l)
		if top.Push(distItem(1, 1)) {
			t.Errorf("l=%d: nothing may be retained", l)
		}
		if cut := top.Cut(); cut != keys.MinKey {
			t.Errorf("l=%d: Cut = %v, want MinKey (nothing is admitted)", l, cut)
		}
		if got := top.Sorted(); len(got) != 0 {
			t.Errorf("l=%d: Sorted = %v", l, got)
		}
	}
}

// Property: for random streams with many equal distances, TopL agrees
// exactly with sort-and-truncate, ties falling by ID.
func TestTopLAgainstSortOracle(t *testing.T) {
	prop := func(dists []uint8, rawL uint8) bool {
		l := int(rawL%32) + 1
		top := NewTopL(l)
		want := make([]Item, len(dists))
		for i, d := range dists {
			// IDs descend so arrival order and ID order disagree.
			want[i] = distItem(uint64(d%16), uint64(len(dists)-i))
			top.Push(want[i])
		}
		SortItems(want)
		want = want[:min(l, len(want))]
		got := top.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("TopL disagrees with sort oracle: %v", err)
	}
}

func TestTopLLargeRandom(t *testing.T) {
	rng := xrand.New(42)
	top := NewTopL(100)
	all := make([]uint64, 10000)
	for i := range all {
		all[i] = rng.Uint64N(1 << 30)
		top.Push(distItem(all[i], uint64(i+1)))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	wantDists(t, top.Sorted(), all[:100]...)
}

func BenchmarkTopLPush(b *testing.B) {
	rng := xrand.New(1)
	items := make([]Item, 1<<16)
	for i := range items {
		items[i] = distItem(rng.Uint64N(1<<30), uint64(i+1))
	}
	b.ReportAllocs()
	for b.Loop() {
		top := NewTopL(256)
		for _, it := range items {
			top.Push(it)
		}
	}
}
