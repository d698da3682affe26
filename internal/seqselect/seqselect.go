// Package seqselect implements sequential selection algorithms — the
// single-machine reference point the paper reduces to (Section 1.2: the
// ℓ-nearest-neighbors problem "really boils down to the selection problem").
//
// Three algorithms are provided:
//
//   - QuickSelect: expected-linear randomized selection (the in-memory
//     analogue of the paper's distributed Algorithm 1);
//   - MedianOfMedians: worst-case-linear deterministic selection (CLRS [5]);
//   - SortSelect: O(n log n) sort-based oracle used to cross-check the others.
//
// All operate on keys.Key slices so they share the exact comparison universe
// of the distributed protocols.
package seqselect

import (
	"math/rand/v2"
	"sort"

	"distknn/internal/keys"
)

// SortSelect returns the l-th smallest key (1-based rank) by sorting a copy.
// It is the correctness oracle: O(n log n) but unconditionally right.
func SortSelect(ks []keys.Key, l int) keys.Key {
	checkRank(len(ks), l)
	cp := append([]keys.Key(nil), ks...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	return cp[l-1]
}

// QuickSelect returns the l-th smallest key (1-based rank) in expected O(n)
// time. The input slice is reordered in place.
func QuickSelect(ks []keys.Key, l int, rng *rand.Rand) keys.Key {
	checkRank(len(ks), l)
	lo, target := 0, l-1
	hi := len(ks) - 1
	for {
		if lo == hi {
			return ks[lo]
		}
		p := partition(ks, lo, hi, lo+rng.IntN(hi-lo+1))
		switch {
		case target == p:
			return ks[p]
		case target < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// MedianOfMedians returns the l-th smallest key (1-based rank) in worst-case
// O(n) time using the classic groups-of-five pivot rule. The input slice is
// reordered in place.
func MedianOfMedians(ks []keys.Key, l int) keys.Key {
	checkRank(len(ks), l)
	lo, hi, target := 0, len(ks)-1, l-1
	for {
		if lo == hi {
			return ks[lo]
		}
		pivotIdx := momPivot(ks, lo, hi)
		p := partition(ks, lo, hi, pivotIdx)
		switch {
		case target == p:
			return ks[p]
		case target < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// momPivot chooses the median-of-medians pivot index within ks[lo..hi].
func momPivot(ks []keys.Key, lo, hi int) int {
	n := hi - lo + 1
	if n <= 5 {
		insertionSort(ks, lo, hi)
		return lo + n/2
	}
	// Move each group-of-five median to the front of the range.
	numMedians := 0
	for g := lo; g <= hi; g += 5 {
		gEnd := g + 4
		if gEnd > hi {
			gEnd = hi
		}
		insertionSort(ks, g, gEnd)
		median := g + (gEnd-g)/2
		ks[lo+numMedians], ks[median] = ks[median], ks[lo+numMedians]
		numMedians++
	}
	// Recursively select the median of the medians.
	sub := ks[lo : lo+numMedians]
	m := MedianOfMedians(sub, (numMedians+1)/2)
	// Locate m's current position to return an index.
	for i := lo; i < lo+numMedians; i++ {
		if ks[i] == m {
			return i
		}
	}
	panic("seqselect: median of medians vanished") // unreachable: m came from sub
}

// partition moves ks[pivotIdx] into its sorted position within ks[lo..hi]
// (Lomuto) and returns that position.
func partition(ks []keys.Key, lo, hi, pivotIdx int) int {
	pivot := ks[pivotIdx]
	ks[pivotIdx], ks[hi] = ks[hi], ks[pivotIdx]
	store := lo
	for i := lo; i < hi; i++ {
		if ks[i].Less(pivot) {
			ks[i], ks[store] = ks[store], ks[i]
			store++
		}
	}
	ks[store], ks[hi] = ks[hi], ks[store]
	return store
}

func insertionSort(ks []keys.Key, lo, hi int) {
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && ks[j].Less(ks[j-1]); j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

// CountInRange returns |{x ∈ ks : lo < x ≤ hi}| — the half-open range count
// used by the distributed selection loop.
func CountInRange(ks []keys.Key, lo, hi keys.Key) int {
	n := 0
	for _, x := range ks {
		if lo.Less(x) && x.LessEq(hi) {
			n++
		}
	}
	return n
}

// FilterLessEq returns the keys ≤ bound, preserving order — the machine-side
// "output all points ≤ max" step that closes Algorithm 1.
func FilterLessEq(ks []keys.Key, bound keys.Key) []keys.Key {
	var out []keys.Key
	for _, x := range ks {
		if x.LessEq(bound) {
			out = append(out, x)
		}
	}
	return out
}

func checkRank(n, l int) {
	if l < 1 || l > n {
		panic("seqselect: rank out of range")
	}
}
