package core

import (
	"fmt"

	"distknn/internal/dsel"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/seqselect"
	"distknn/internal/wire"
)

// SimpleKNN runs the baseline the paper's evaluation compares against
// (Section 3): every machine finds its local ℓ nearest points and transfers
// all of them to the leader, which computes the answer among the ≤ kℓ
// candidates and announces the boundary. Under the B-bits-per-round link
// bound this costs Θ(ℓ) communication rounds — exponentially more than
// Algorithm 2's O(log ℓ).
func SimpleKNN(m kmachine.Env, cfg Config, local []points.Item) (Result, error) {
	if err := validateConfig(m, cfg); err != nil {
		return Result{}, err
	}
	s := topL(local, cfg.L)

	if m.ID() != cfg.Leader {
		var w wire.Writer
		w.U8(kindAllItems)
		w.Items(s)
		m.Send(cfg.Leader, w.Bytes())
		m.EndRound()
		// Await the boundary announcement.
		msg := m.Gather(1)[0]
		r := wire.NewReader(msg.Payload)
		if kind := r.U8(); kind != kindBoundary {
			return Result{}, fmt.Errorf("core: worker %d expected boundary, got kind %d", m.ID(), kind)
		}
		boundary := r.Key()
		if err := r.Err(); err != nil {
			return Result{}, fmt.Errorf("core: bad boundary message: %w", err)
		}
		return Result{Winners: sortedWinners(s, boundary), Boundary: boundary}, nil
	}

	// Leader: gather everyone's full top-ℓ and select locally.
	merged := itemKeys(s)
	if m.K() > 1 {
		m.EndRound()
		for _, msg := range m.Gather(m.K() - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != kindAllItems {
				return Result{}, fmt.Errorf("core: expected items from %d, got kind %d", msg.From, kind)
			}
			for _, it := range r.Items() {
				merged = append(merged, it.Key)
			}
			if err := r.Err(); err != nil {
				return Result{}, fmt.Errorf("core: bad items from %d: %w", msg.From, err)
			}
		}
	}
	if cfg.L > len(merged) {
		return Result{}, fmt.Errorf("core: l=%d exceeds the %d available points", cfg.L, len(merged))
	}
	boundary := seqselect.QuickSelect(merged, cfg.L, m.Rand())
	var w wire.Writer
	w.U8(kindBoundary)
	w.Key(boundary)
	m.Broadcast(w.Bytes())
	return Result{Winners: sortedWinners(s, boundary), Boundary: boundary}, nil
}

// DirectKNN computes ℓ-NN by running Algorithm 1 directly on all ≤ kℓ
// local-top-ℓ candidates, skipping Algorithm 2's sampling step. O(log ℓ +
// log k) rounds (Section 2.2) — the k-dependence is what the sampling
// removes. It is also the fallback selection of a Las Vegas KNN run.
func DirectKNN(m kmachine.Env, cfg Config, local []points.Item) (Result, error) {
	return selectKNN(m, cfg, local, dsel.FindLSmallest)
}

// SaukasSongKNN computes ℓ-NN with the deterministic Saukas–Song
// weighted-median selection over the local-top-ℓ candidates — the strongest
// prior-work baseline (Section 1.4: O(log(kℓ)) rounds, deterministic).
func SaukasSongKNN(m kmachine.Env, cfg Config, local []points.Item) (Result, error) {
	return selectKNN(m, cfg, local, dsel.SaukasSong)
}

// BinarySearchKNN computes ℓ-NN by bisecting the key domain ([3, 18] in the
// paper): Θ(domain bits) rounds regardless of n, k or ℓ.
func BinarySearchKNN(m kmachine.Env, cfg Config, local []points.Item) (Result, error) {
	return selectKNN(m, cfg, local, dsel.BinarySearch)
}

// selectKNN runs the selection protocol sel over the machine's local top-ℓ
// candidates and keeps the winners at or below the boundary.
func selectKNN(m kmachine.Env, cfg Config, local []points.Item, sel dsel.Protocol) (Result, error) {
	if err := validateConfig(m, cfg); err != nil {
		return Result{}, err
	}
	s := topL(local, cfg.L)
	res, err := sel(m, cfg.Leader, itemKeys(s), cfg.L, dsel.Options{})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Winners:    sortedWinners(s, res.Boundary),
		Boundary:   res.Boundary,
		Iterations: res.Iterations,
	}, nil
}
