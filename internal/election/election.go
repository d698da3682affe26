// Package election names the leader of a k-machine cluster.
//
// Both Algorithm 1 and Algorithm 2 of the paper open with "elect a leader
// machine", and both need only that every machine agrees on one index. The
// paper points to Kutten, Pandurangan, Peleg, Robinson and Trehan (TCS
// 2015) for an O(1)-round, O(√k·log^{3/2} k)-message election. Here every
// machine's GUID derives from the session seed, which every party already
// holds, so the min-GUID winner needs no messages at all: the in-process
// Cluster and the serving frontend each call Leader and agree by
// construction. The election costs zero rounds, and no query
// is charged for it.
package election

import "distknn/internal/xrand"

// setupSeedStream is the seed-derivation stream the GUIDs are drawn on. Query
// epochs use the small positive ordinals 1, 2, 3, …, which never collide
// with it.
const setupSeedStream = ^uint64(0)

// guid is machine i's globally unique identifier in the session with the
// given seed.
func guid(sessionSeed uint64, i int) uint64 {
	return xrand.DeriveSeed(xrand.DeriveSeed(sessionSeed, setupSeedStream), uint64(i)+(1<<32))
}

// Leader returns the index of the machine with the smallest GUID among the
// k machines of the session with the given seed, the lowest index winning a
// tie (which cannot happen with 64-bit GUIDs in practice).
func Leader(sessionSeed uint64, k int) int {
	best, bestID := uint64(0), 0
	for i := 0; i < k; i++ {
		if g := guid(sessionSeed, i); i == 0 || g < best {
			best, bestID = g, i
		}
	}
	return bestID
}
