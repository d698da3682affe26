// Package core implements the paper's primary contribution: distributed
// ℓ-nearest-neighbors in the k-machine model.
//
// Three query algorithms are provided. Each machine calls the same function
// with the items (distance key + label) of its local points for the query;
// all machines return the same boundary and metadata, plus their local share
// of the winning points.
//
//   - KNN — the paper's Algorithm 2, O(log ℓ) rounds w.h.p. (Theorem 2.4):
//     keep the local top-ℓ, sample 12·log ℓ of them to the leader, prune
//     everything above the sample of rank 21·log ℓ (with high probability at
//     most 11ℓ candidates survive, Lemma 2.3), then run Algorithm 1 on the
//     survivors. When every machine's sample is its whole local top-ℓ
//     (Config.CompleteSample), the leader already holds every candidate: it
//     selects rank ℓ among the samples and broadcasts the boundary, and the
//     query ends after two rounds.
//
//   - DirectKNN — Algorithm 1 applied to all ≤ kℓ local-top-ℓ candidates
//     without the sampling step; O(log ℓ + log k) rounds (Section 2.2).
//
//   - SimpleKNN — the practical baseline the paper's evaluation compares
//     against: every machine ships its entire local top-ℓ to the leader, who
//     merges and announces the boundary. Θ(ℓ) rounds under the bandwidth
//     constraint.
//
// The pruning step of Algorithm 2 is Monte Carlo: with probability ≤ 2/ℓ²
// the prune threshold lands below the true ℓ-th neighbor and fewer than ℓ
// candidates survive. Because survivors ≥ ℓ implies the answer is intact
// (the ℓ-th smallest key is then ≤ the threshold), a single count suffices to
// verify a run. KNN always performs that check and falls back to DirectKNN's
// un-pruned selection when it fails (Las Vegas), so the result is exact
// always; Result.FellBack reports the fallback, which is how the failure
// probability itself is measured.
package core

import (
	"fmt"
	"math/bits"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
)

// Default sampling constants from Lemma 2.3.
const (
	DefaultSampleFactor = 12
	DefaultCutFactor    = 21
)

// Config parameterizes a distributed ℓ-NN query.
type Config struct {
	// Leader is the elected leader's machine index.
	Leader int
	// L is ℓ: how many nearest neighbors to find. Must satisfy
	// 1 ≤ L ≤ total number of points.
	L int
	// SampleFactor and CutFactor override the Lemma 2.3 constants
	// (12·log ℓ samples per machine, prune at global sample rank
	// 21·log ℓ). Zero selects the defaults.
	SampleFactor int
	CutFactor    int
}

func (c Config) sampleFactor() int {
	if c.SampleFactor > 0 {
		return c.SampleFactor
	}
	return DefaultSampleFactor
}

func (c Config) cutFactor() int {
	if c.CutFactor > 0 {
		return c.CutFactor
	}
	return DefaultCutFactor
}

// CompleteSample reports whether a machine holding n candidates samples its
// whole local top-ℓ in Algorithm 2's step 4: min(n, ℓ) ≤ SampleFactor ·
// ⌈log₂(ℓ+1)⌉, which holds for every ℓ ≤ 84 at the default factor. When it
// holds on every machine, KNN finishes at the sample.
func (c Config) CompleteSample(n int) bool {
	return min(n, c.L) <= sampleSize(c.L, c.sampleFactor())
}

// Result is what every machine learns from a query.
type Result struct {
	// Winners are this machine's points among the global ℓ nearest, in
	// ascending key order.
	Winners []points.Item
	// Boundary is the key of the ℓ-th nearest neighbor; identical on all
	// machines.
	Boundary keys.Key
	// Iterations counts selection pivot steps (0 for SimpleKNN).
	Iterations int
	// Survivors is the number of candidates that survived Algorithm 2's
	// prune (0 for the other algorithms); identical on all machines. When
	// KNN finishes at the sample no prune runs, and Survivors is the count
	// the prune would have kept, min(CutFactor·⌈log₂(ℓ+1)⌉, Σ|S_i|), exact
	// because the leader then holds every candidate.
	Survivors int64
	// FellBack reports that the prune failed and the selection ran
	// without it.
	FellBack bool
}

// Message kinds for the core protocols. They share the machines' links with
// dsel's kinds but never interleave with them: every phase fully completes
// (gathered by the leader) before the next begins.
const (
	kindSamples  = iota + 64 // worker → leader: |S_i| + sampled keys
	kindPrune                // leader → all: prune threshold r
	kindCount                // worker → leader: |{x ∈ S_i : x ≤ r}|
	kindProceed              // leader → all: usePruned flag + survivors
	kindAllItems             // worker → leader: the entire local top-ℓ
	kindBoundary             // leader → all: final boundary (SimpleKNN)
	kindFinish               // leader → all: boundary + survivors (KNN's complete sample)
)

// topL returns the ≤ l smallest items — the paper's step 2: a machine with
// more than ℓ points keeps the ℓ closest to the query and discards the rest.
func topL(items []points.Item, l int) []points.Item {
	if l < 1 {
		return nil
	}
	if len(items) <= l {
		out := append([]points.Item(nil), items...)
		points.SortItems(out)
		return out
	}
	top := points.NewTopL(l)
	for _, it := range items {
		top.Push(it)
	}
	return top.Sorted()
}

// log2Ceil returns ⌈log₂(x)⌉ for x ≥ 1 (0 for x = 1).
func log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// sampleSize is the per-machine sample count: factor · ⌈log₂(ℓ+1)⌉, at
// least 1 so that ℓ = 1 still samples.
func sampleSize(l, factor int) int {
	n := factor * log2Ceil(l+1)
	if n < 1 {
		n = 1
	}
	return n
}

// filterItems returns the items with key ≤ bound, preserving order.
func filterItems(items []points.Item, bound keys.Key) []points.Item {
	var out []points.Item
	for _, it := range items {
		if it.Key.LessEq(bound) {
			out = append(out, it)
		}
	}
	return out
}

// itemKeys projects items to their keys.
func itemKeys(items []points.Item) []keys.Key {
	out := make([]keys.Key, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}

func validateConfig(m kmachine.Env, cfg Config) error {
	if cfg.Leader < 0 || cfg.Leader >= m.K() {
		return fmt.Errorf("core: leader %d out of range [0,%d)", cfg.Leader, m.K())
	}
	if cfg.L < 1 {
		return fmt.Errorf("core: l must be >= 1, got %d", cfg.L)
	}
	return nil
}
