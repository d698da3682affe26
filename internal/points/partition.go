package points

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// A Partitioner splits one global set into k per-machine sets. The k-machine
// model allows the input to be distributed adversarially as long as every
// machine holds O(n/k) points; the partitioners below cover the benign,
// adversarial and unbalanced corners of that space.
type Partitioner int

const (
	// PartitionRandom deals points round-robin after a random shuffle —
	// the benign case and the closest match to the paper's experiment,
	// where every process generates its own points independently.
	PartitionRandom Partitioner = iota
	// PartitionSorted sorts points by their key distance to a zero query
	// proxy (their raw order for scalars) and hands out contiguous chunks.
	// This is the adversarial layout: all small values on one machine.
	PartitionSorted
	// PartitionSkewed gives machine 0 half the points, machine 1 half the
	// remainder, and so on (still every machine gets at least one point if
	// n >= 2^k). It violates balance to exercise the algorithms' claim of
	// working for arbitrary distributions.
	PartitionSkewed
)

// String names the partitioner for experiment tables.
func (p Partitioner) String() string {
	switch p {
	case PartitionRandom:
		return "random"
	case PartitionSorted:
		return "sorted"
	case PartitionSkewed:
		return "skewed"
	default:
		return fmt.Sprintf("partitioner(%d)", int(p))
	}
}

// Partition splits s into k sets according to the strategy. Points, IDs and
// labels move together. The union of the outputs is exactly s; no point is
// copied twice. The order inside each machine's set is unspecified.
func Partition[P any](s *Set[P], k int, strategy Partitioner, rng *rand.Rand) ([]*Set[P], error) {
	if k < 1 {
		return nil, fmt.Errorf("points: partition into k=%d machines", k)
	}
	n := s.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	switch strategy {
	case PartitionRandom:
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	case PartitionSorted:
		// Sort by the set's own order against a canonical zero query:
		// for scalars this is the numeric order, which concentrates the
		// global minimum (and thus likely answer sets) on one machine.
		var zero P
		sort.Slice(idx, func(a, b int) bool {
			da := s.metric(s.Pts[idx[a]], zero)
			db := s.metric(s.Pts[idx[b]], zero)
			if da != db {
				return da < db
			}
			return s.IDs[idx[a]] < s.IDs[idx[b]]
		})
	case PartitionSkewed:
		// Keep natural order; sizes computed below.
	default:
		return nil, fmt.Errorf("points: unknown partitioner %d", strategy)
	}

	sizes := make([]int, k)
	switch strategy {
	case PartitionSkewed:
		rest := n
		for i := 0; i < k-1; i++ {
			sizes[i] = (rest + 1) / 2
			rest -= sizes[i]
		}
		sizes[k-1] = rest
	default:
		for i := 0; i < k; i++ {
			sizes[i] = n / k
			if i < n%k {
				sizes[i]++
			}
		}
	}

	out := make([]*Set[P], k)
	pos := 0
	for m := 0; m < k; m++ {
		sz := sizes[m]
		sub := &Set[P]{
			Pts:    make([]P, sz),
			IDs:    make([]uint64, sz),
			Labels: make([]float64, sz),
			metric: s.metric,
			batch:  s.batch,
		}
		for j := 0; j < sz; j++ {
			src := idx[pos]
			sub.Pts[j] = s.Pts[src]
			sub.IDs[j] = s.IDs[src]
			sub.Labels[j] = s.Labels[src]
			pos++
		}
		out[m] = sub
	}
	return out, nil
}

// Merge concatenates per-machine sets back into one global set (used by
// tests to verify partitioning is lossless).
func Merge[P any](parts []*Set[P]) *Set[P] {
	out := &Set[P]{}
	for _, p := range parts {
		if out.metric == nil {
			out.metric, out.batch = p.metric, p.batch
		}
		out.Pts = append(out.Pts, p.Pts...)
		out.IDs = append(out.IDs, p.IDs...)
		out.Labels = append(out.Labels, p.Labels...)
	}
	return out
}
