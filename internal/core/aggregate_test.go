package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
)

// TestSharesFoldsMatchMesh pins the contract the pruned frontend rests on:
// ClassifyShares and RegressShares, fed every seat's winner share, return
// exactly what Classify and Regress return when the same shares sit on the
// machines of a simulated mesh — compared by bit pattern, over seeded
// random shares with empty seats, every choice of leader, and labels whose
// sum is order-sensitive under rounding.
func TestSharesFoldsMatchMesh(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 7))
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.IntN(6)
		leader := rng.IntN(k)
		shares := make([][]points.Item, k)
		id := uint64(1)
		for seat := range shares {
			if seat > 0 && rng.IntN(3) == 0 {
				continue // a seat holding no winner (seat 0 keeps the total above zero)
			}
			for n := 1 + rng.IntN(9); n > 0; n-- {
				label := float64(rng.IntN(4)) // few distinct labels: real vote ties
				if trial%4 != 0 {
					label = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(12)))
				}
				shares[seat] = append(shares[seat], points.Item{Key: keys.Key{Dist: id, ID: id}, Label: label})
				id++
			}
		}
		classify := make([]float64, k)
		regress := make([]float64, k)
		_, err := kmachine.Run(kmachine.Config{K: k, Seed: uint64(trial)}, func(m kmachine.Env) error {
			var err error
			if classify[m.ID()], err = Classify(m, leader, shares[m.ID()]); err != nil {
				return err
			}
			regress[m.ID()], err = Regress(m, leader, shares[m.ID()])
			return err
		})
		if err != nil {
			t.Fatalf("trial %d: mesh run: %v", trial, err)
		}
		gotC, err := ClassifyShares(shares)
		if err != nil {
			t.Fatalf("trial %d: ClassifyShares: %v", trial, err)
		}
		gotR, err := RegressShares(shares, leader)
		if err != nil {
			t.Fatalf("trial %d: RegressShares: %v", trial, err)
		}
		for seat := 0; seat < k; seat++ {
			if math.Float64bits(gotC) != math.Float64bits(classify[seat]) {
				t.Fatalf("trial %d (k=%d leader=%d): ClassifyShares = %v, machine %d classified %v", trial, k, leader, gotC, seat, classify[seat])
			}
			if math.Float64bits(gotR) != math.Float64bits(regress[seat]) {
				t.Fatalf("trial %d (k=%d leader=%d): RegressShares = %x, machine %d regressed %x", trial, k, leader,
					math.Float64bits(gotR), seat, math.Float64bits(regress[seat]))
			}
		}
	}
}

// TestSharesFoldsRejectNoWinners keeps the mesh's empty-answer errors on
// the shared folds.
func TestSharesFoldsRejectNoWinners(t *testing.T) {
	if _, err := ClassifyShares(make([][]points.Item, 3)); err == nil {
		t.Error("ClassifyShares over no winners must fail")
	}
	if _, err := RegressShares(make([][]points.Item, 3), 1); err == nil {
		t.Error("RegressShares over no winners must fail")
	}
}
