package core

import (
	"fmt"
	"sort"

	"distknn/internal/dsel"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// KNN runs the paper's Algorithm 2 on one machine. Every machine must call
// it with the items of its local points (distance keys to the shared query)
// and an identical Config. O(log ℓ) rounds and O(k·log ℓ) messages w.h.p.;
// two rounds and 2(k−1) messages when every machine's sample is its whole
// local top-ℓ, none when k = 1.
func KNN(m kmachine.Env, cfg Config, local []points.Item) (Result, error) {
	if err := validateConfig(m, cfg); err != nil {
		return Result{}, err
	}
	// Step 2: keep only the ℓ closest local points.
	s := topL(local, cfg.L)

	// Step 3–4: sample 12·log ℓ of them to the leader, tagged with the
	// full local count so the leader can verify ℓ ≤ Σ|S_i| up front.
	nSamples := sampleSize(cfg.L, cfg.sampleFactor())
	sample := make([]keys.Key, 0, nSamples)
	for _, idx := range xrand.SampleWithoutReplacement(m.Rand(), len(s), nSamples) {
		sample = append(sample, s[idx].Key)
	}

	if m.ID() != cfg.Leader {
		var w wire.Writer
		w.U8(kindSamples)
		w.Varint(uint64(len(s)))
		w.Keys(sample)
		m.Send(cfg.Leader, w.Bytes())
		m.EndRound()
		return knnWorker(m, cfg, s)
	}
	return knnLeader(m, cfg, s, sample)
}

// knnLeader drives steps 4–9 on the leader.
func knnLeader(m kmachine.Env, cfg Config, s []points.Item, ownSample []keys.Key) (Result, error) {
	k := m.K()
	nSamples := sampleSize(cfg.L, cfg.sampleFactor())
	allSamples := ownSample
	total := int64(len(s))
	complete := len(ownSample) == len(s)
	if k > 1 {
		m.EndRound()
		for _, msg := range m.Gather(k - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != kindSamples {
				return Result{}, fmt.Errorf("core: expected samples from %d, got kind %d", msg.From, kind)
			}
			n := r.Varint()
			sample := r.Keys()
			if err := r.Err(); err != nil {
				return Result{}, fmt.Errorf("core: bad samples from %d: %w", msg.From, err)
			}
			// A sample of the wrong length could pass for a complete one.
			if n > uint64(cfg.L) || len(sample) != min(nSamples, int(n)) {
				return Result{}, fmt.Errorf("core: %d sampled keys from %d for %d local candidates, want min(%d, |S_i|) keys and |S_i| ≤ l=%d",
					len(sample), msg.From, n, nSamples, cfg.L)
			}
			total += int64(n)
			complete = complete && len(sample) == int(n)
			allSamples = append(allSamples, sample...)
		}
	}
	if int64(cfg.L) > total {
		return Result{}, fmt.Errorf("core: l=%d exceeds the %d available points", cfg.L, total)
	}

	// Step 5: r is the sample of global rank 21·log ℓ.
	sort.Slice(allSamples, func(a, b int) bool { return allSamples[a].Less(allSamples[b]) })
	cut := min(sampleSize(cfg.L, cfg.cutFactor()), len(allSamples))

	// Complete-sample finish: every sample is its machine's whole S_i, so
	// the leader holds every candidate and rank ℓ among them is the answer.
	// The prune would have kept exactly the cut smallest.
	if complete {
		boundary := allSamples[cfg.L-1]
		var w wire.Writer
		w.U8(kindFinish)
		w.Key(boundary)
		w.Varint(uint64(cut))
		m.Broadcast(w.Bytes())
		return Result{Winners: sortedWinners(s, boundary), Boundary: boundary, Survivors: int64(cut)}, nil
	}
	threshold := allSamples[cut-1]

	// Step 6–7: broadcast r, gather surviving-candidate counts.
	var w wire.Writer
	w.U8(kindPrune)
	w.Key(threshold)
	m.Broadcast(w.Bytes())
	pruned := filterItems(s, threshold)
	survivors := int64(len(pruned))
	if k > 1 {
		m.EndRound()
		for _, msg := range m.Gather(k - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != kindCount {
				return Result{}, fmt.Errorf("core: expected prune count from %d, got kind %d", msg.From, kind)
			}
			survivors += int64(r.Varint())
			if err := r.Err(); err != nil {
				return Result{}, fmt.Errorf("core: bad prune count from %d: %w", msg.From, err)
			}
		}
	}

	// Verification: survivors ≥ ℓ guarantees the true answer survived the
	// prune; otherwise the selection runs without it.
	usePruned := survivors >= int64(cfg.L)
	var pw wire.Writer
	pw.U8(kindProceed)
	if usePruned {
		pw.U8(1)
	} else {
		pw.U8(0)
	}
	pw.Varint(uint64(survivors))
	m.Broadcast(pw.Bytes())
	return selectSurvivors(m, cfg, s, pruned, survivors, usePruned)
}

// knnWorker answers the leader's prune phase, then hands over to the
// selection worker loop. When the leader finished at the sample, its first
// message is the boundary itself.
func knnWorker(m kmachine.Env, cfg Config, s []points.Item) (Result, error) {
	// Await the prune threshold or the finish.
	msg := m.Gather(1)[0]
	r := wire.NewReader(msg.Payload)
	switch kind := r.U8(); kind {
	case kindPrune:
	case kindFinish:
		boundary := r.Key()
		survivors := int64(r.Varint())
		if err := r.Err(); err != nil {
			return Result{}, fmt.Errorf("core: bad finish message: %w", err)
		}
		return Result{Winners: sortedWinners(s, boundary), Boundary: boundary, Survivors: survivors}, nil
	default:
		return Result{}, fmt.Errorf("core: worker %d expected prune or finish, got kind %d", m.ID(), kind)
	}
	threshold := r.Key()
	if err := r.Err(); err != nil {
		return Result{}, fmt.Errorf("core: bad prune message: %w", err)
	}
	pruned := filterItems(s, threshold)
	var w wire.Writer
	w.U8(kindCount)
	w.Varint(uint64(len(pruned)))
	m.Send(cfg.Leader, w.Bytes())
	m.EndRound()

	// Await the proceed decision.
	msg = m.Gather(1)[0]
	r = wire.NewReader(msg.Payload)
	if kind := r.U8(); kind != kindProceed {
		return Result{}, fmt.Errorf("core: worker %d expected proceed, got kind %d", m.ID(), kind)
	}
	usePruned := r.U8() == 1
	survivors := int64(r.Varint())
	if err := r.Err(); err != nil {
		return Result{}, fmt.Errorf("core: bad proceed message: %w", err)
	}
	return selectSurvivors(m, cfg, s, pruned, survivors, usePruned)
}

// selectSurvivors is step 9 on every machine: Algorithm 1 over the pruned
// candidates, or over the whole local top-ℓ s when the prune failed, and the
// machine's share of the winners.
func selectSurvivors(m kmachine.Env, cfg Config, s, pruned []points.Item, survivors int64, usePruned bool) (Result, error) {
	cand := pruned
	if !usePruned {
		cand = s
	}
	sel, err := dsel.FindLSmallest(m, cfg.Leader, itemKeys(cand), cfg.L, dsel.Options{})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Winners:    sortedWinners(s, sel.Boundary),
		Boundary:   sel.Boundary,
		Iterations: sel.Iterations,
		Survivors:  survivors,
		FellBack:   !usePruned,
	}, nil
}

// sortedWinners projects the local top-ℓ onto the final boundary in
// ascending key order.
func sortedWinners(s []points.Item, boundary keys.Key) []points.Item {
	out := filterItems(s, boundary)
	points.SortItems(out)
	return out
}
