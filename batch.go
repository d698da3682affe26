package distknn

import (
	"fmt"

	"distknn/internal/dsel"
	"distknn/internal/points"
)

// BatchResult is the outcome of one query inside a KNNBatch call.
type BatchResult struct {
	// Neighbors are the exact ℓ nearest neighbors in ascending order.
	Neighbors []Item
	// Boundary is the ℓ-th neighbor's key.
	Boundary Key
}

// KNNBatch answers many queries in a single simulator run: every query costs
// only the O(log ℓ) query protocol, back to back on the run's machines, with
// no per-query setup at all — the paper's concluding suggestion of using the
// algorithm as a subroutine, applied to the query stream itself. The leader
// is computed from the seed, so the batch pays no election either.
//
// The per-query results are exact and identical to individual KNN calls.
// The returned QueryStats aggregates the whole batch. KNNBatch is safe to
// call concurrently with itself and with single queries.
func (c *Cluster[P]) KNNBatch(queries []P, l int) ([]BatchResult, *QueryStats, error) {
	if len(queries) == 0 && l >= 1 && l <= c.n {
		return nil, &QueryStats{}, nil // nothing to run, no query seed drawn
	}
	res, stats, err := c.run(queries, l)
	if err != nil {
		return nil, nil, err
	}
	out := make([]BatchResult, len(queries))
	for qi := range queries {
		out[qi] = BatchResult{Neighbors: mergeWinners(shares(res[qi])), Boundary: res[qi][stats.Leader].Boundary}
	}
	return out, stats, nil
}

// SelectRank finds the value of global rank `rank` (1-based) among all
// scalar points in the cluster using the paper's Algorithm 1 directly —
// selection without a query point, e.g. an exact distributed median
// (rank = n/2) or any percentile. O(log n) rounds, O(k·log n) messages
// w.h.p. The stats' Boundary carries the selected (value, ID) key.
func SelectRank(c *Cluster[Scalar], rank int) (uint64, *QueryStats, error) {
	if rank < 1 || rank > c.n {
		return 0, nil, fmt.Errorf("distknn: rank %d out of range [1, %d]", rank, c.n)
	}
	sim, err := c.sim(c.querySeed())
	if err != nil {
		return 0, nil, err
	}
	leader := c.Leader()
	res, met, err := dsel.Run(sim, dsel.FindLSmallest, leader, points.ScalarKeys(c.parts), rank, dsel.Options{})
	if err != nil {
		return 0, nil, err
	}
	stats := runStats(met, leader)
	stats.Boundary = res[leader].Boundary
	stats.Iterations = res[leader].Iterations
	return stats.Boundary.Dist, stats, nil
}

// Median returns the exact median value of a scalar cluster (lower median
// for even n).
func Median(c *Cluster[Scalar]) (uint64, *QueryStats, error) {
	if c.n == 0 {
		return 0, nil, fmt.Errorf("distknn: median of empty cluster")
	}
	return SelectRank(c, (c.n+1)/2)
}
