package distknn

import (
	"fmt"

	"distknn/internal/dsel"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
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
// is already cached, so the batch does not pay an election either.
//
// The per-query results are exact and identical to individual KNN calls.
// The returned QueryStats aggregates the whole batch. KNNBatch is safe to
// call concurrently with itself and with single queries.
func (c *Cluster[P]) KNNBatch(queries []P, l int) ([]BatchResult, *QueryStats, error) {
	if l < 1 || l > c.n {
		return nil, nil, fmt.Errorf("distknn: l=%d out of range [1, %d]", l, c.n)
	}
	if len(queries) == 0 {
		return nil, &QueryStats{}, nil
	}
	sim, err := c.sim(c.querySeed())
	if err != nil {
		return nil, nil, err
	}
	leader := c.Leader()
	algoFn := c.algoFn()
	cfg := c.baseConfig(l)
	cfg.Leader = leader

	k := len(c.parts)
	winnersPerQuery := make([][][]Item, len(queries)) // [query][machine][]Item
	for qi := range winnersPerQuery {
		winnersPerQuery[qi] = make([][]Item, k)
	}
	boundaries := make([]Key, len(queries))

	prog := func(m kmachine.Env) error {
		for qi, q := range queries {
			local := c.localTopL(m.ID(), q, l)
			res, err := algoFn(m, cfg, local)
			if err != nil {
				return fmt.Errorf("query %d: %w", qi, err)
			}
			winnersPerQuery[qi][m.ID()] = res.Winners
			if m.ID() == leader {
				boundaries[qi] = res.Boundary
			}
		}
		return nil
	}
	met, err := kmachine.Run(sim, prog)
	if err != nil {
		return nil, nil, err
	}

	out := make([]BatchResult, len(queries))
	for qi := range queries {
		out[qi] = BatchResult{Neighbors: mergeWinners(winnersPerQuery[qi]), Boundary: boundaries[qi]}
	}
	stats := &QueryStats{
		Rounds:   met.Rounds,
		Messages: met.Messages,
		Bytes:    met.Bytes,
		Leader:   leader,
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
	k := len(c.parts)
	locals := make([][]keys.Key, k)
	for i, part := range c.parts {
		ks := make([]keys.Key, part.Len())
		for j := range ks {
			ks[j] = keys.Key{Dist: uint64(part.Pts[j]), ID: part.IDs[j]}
		}
		locals[i] = ks
	}
	stats := &QueryStats{}
	prog := func(m kmachine.Env) error {
		res, err := dsel.FindLSmallest(m, leader, locals[m.ID()], rank, dsel.Options{})
		if err != nil {
			return err
		}
		if m.ID() == leader {
			stats.Leader = leader
			stats.Boundary = res.Boundary
			stats.Iterations = res.Iterations
		}
		return nil
	}
	met, err := kmachine.Run(sim, prog)
	if err != nil {
		return 0, nil, err
	}
	stats.Rounds = met.Rounds
	stats.Messages = met.Messages
	stats.Bytes = met.Bytes
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
