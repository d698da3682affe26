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
// the smallest label), and the mean summed seat by seat in share order with
// the leader's sum first and the others in ascending seat order — compared
// by bit pattern, over seeded random shares with empty seats, every choice
// of leader, few distinct labels (real vote ties) and labels whose sum is
// order-sensitive under rounding.
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
		for leader := 0; leader < k; leader++ {
			gotR, err := RegressShares(shares, leader)
			if err != nil {
				t.Fatalf("trial %d: RegressShares: %v", trial, err)
			}
			if want := leaderFirstMean(shares, leader); math.Float64bits(gotR) != math.Float64bits(want) {
				t.Fatalf("trial %d (k=%d leader=%d): RegressShares = %x, reference %x", trial, k, leader,
					math.Float64bits(gotR), math.Float64bits(want))
			}
		}
	}
}

// leaderFirstMean is the Regress reference: each seat sums its own share
// from zero in share order, then the leader's sum is taken first and every
// other seat's added in ascending seat order.
func leaderFirstMean(shares [][]points.Item, leader int) float64 {
	sums := make([]float64, len(shares))
	n := 0
	for seat, share := range shares {
		for _, it := range share {
			sums[seat] += it.Label
		}
		n += len(share)
	}
	total := sums[leader]
	for seat, s := range sums {
		if seat != leader {
			total += s
		}
	}
	return total / float64(n)
}

// TestRegressSharesSumsLeaderFirst pins one case where the summation order
// changes the bits: with the leader's −1e16 first, 1e16 cancels it exactly
// and the 1 survives (mean 1/3); in ascending seat order the 1 is absorbed
// into 1e16 before the cancellation (mean 0).
func TestRegressSharesSumsLeaderFirst(t *testing.T) {
	item := func(id uint64, label float64) []points.Item {
		return []points.Item{{Key: keys.Key{Dist: id, ID: id}, Label: label}}
	}
	shares := [][]points.Item{item(1, 1e16), item(2, 1), item(3, -1e16)}
	got, err := RegressShares(shares, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 3; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("leader 2: RegressShares = %v (%x), want %v (%x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	ascending, err := RegressShares(shares, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ascending) != 0 {
		t.Fatalf("leader 0 (ascending seat order): RegressShares = %v, want exactly 0", ascending)
	}
}

// TestSharesFoldsRejectNoWinners keeps the empty-answer errors on the
// folds.
func TestSharesFoldsRejectNoWinners(t *testing.T) {
	if _, err := ClassifyShares(make([][]points.Item, 3)); err == nil {
		t.Error("ClassifyShares over no winners must fail")
	}
	if _, err := RegressShares(make([][]points.Item, 3), 1); err == nil {
		t.Error("RegressShares over no winners must fail")
	}
}
