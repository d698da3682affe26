package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// TestSharesFoldsMatchReference pins the label folds against a reference
// computed straight from the shares: the brute-force majority vote (ties to
// the smallest label), and the mean summed seat by seat in share order and
// then across seats in ascending seat order — compared by bit pattern, over
// seeded random shares with empty seats, few distinct labels (real vote
// ties) and labels whose sum is order-sensitive under rounding.
func TestSharesFoldsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 7))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.IntN(6)
		shares := make([][]points.Item, k)
		var all []points.Item
		id := uint64(1)
		for seat := range shares {
			if seat > 0 && rng.IntN(3) == 0 {
				continue // a seat holding no winner (seat 0 keeps the total above zero)
			}
			for n := 1 + rng.IntN(9); n > 0; n-- {
				label := float64(rng.IntN(4))
				if trial%4 != 0 {
					label = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(12)))
				}
				it := points.Item{Key: keys.Key{Dist: id, ID: id}, Label: label}
				shares[seat] = append(shares[seat], it)
				all = append(all, it)
				id++
			}
		}
		gotC, err := ClassifyShares(shares)
		if err != nil {
			t.Fatalf("trial %d: ClassifyShares: %v", trial, err)
		}
		if want := bruteMajority(all); math.Float64bits(gotC) != math.Float64bits(want) {
			t.Fatalf("trial %d (k=%d): ClassifyShares = %v, brute-force vote %v", trial, k, gotC, want)
		}
		gotR, err := RegressShares(shares)
		if err != nil {
			t.Fatalf("trial %d: RegressShares: %v", trial, err)
		}
		if want := seatOrderMean(shares); math.Float64bits(gotR) != math.Float64bits(want) {
			t.Fatalf("trial %d (k=%d): RegressShares = %x, reference %x", trial, k,
				math.Float64bits(gotR), math.Float64bits(want))
		}
	}
}

// seatOrderMean is the Regress reference: each seat sums its own share
// from zero in share order, then seat 0's sum is taken first and every
// other seat's added in ascending seat order.
func seatOrderMean(shares [][]points.Item) float64 {
	sums := make([]float64, len(shares))
	n := 0
	for seat, share := range shares {
		for _, it := range share {
			sums[seat] += it.Label
		}
		n += len(share)
	}
	total := sums[0]
	for _, s := range sums[1:] {
		total += s
	}
	return total / float64(n)
}

// TestRegressSharesSumsInSeatOrder pins one case where the summation order
// changes the bits: the same three labels on permuted seats. With 1e16 on
// seat 0, the 1 on seat 1 is absorbed into it before −1e16 cancels it
// (mean 0); with −1e16 on seat 0 and 1e16 on seat 1 they cancel exactly
// first and the 1 survives (mean 1/3). The seat ids alone decide which.
func TestRegressSharesSumsInSeatOrder(t *testing.T) {
	item := func(id uint64, label float64) []points.Item {
		return []points.Item{{Key: keys.Key{Dist: id, ID: id}, Label: label}}
	}
	for _, c := range []struct {
		shares [][]points.Item
		want   float64
	}{
		{[][]points.Item{item(1, 1e16), item(2, 1), item(3, -1e16)}, 0},
		{[][]points.Item{item(3, -1e16), item(1, 1e16), item(2, 1)}, 1.0 / 3},
	} {
		got, err := RegressShares(c.shares)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Fatalf("seats %v: RegressShares = %v (%x), want %v (%x)", c.shares, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestSharesFoldsRejectNoWinners keeps the empty-answer errors on the
// folds.
func TestSharesFoldsRejectNoWinners(t *testing.T) {
	if _, err := ClassifyShares(make([][]points.Item, 3)); err == nil {
		t.Error("ClassifyShares over no winners must fail")
	}
	if _, err := RegressShares(make([][]points.Item, 3)); err == nil {
		t.Error("RegressShares over no winners must fail")
	}
}
