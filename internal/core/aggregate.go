package core

import (
	"fmt"
	"sort"

	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// The Classify and Regress aggregations exist in two serving shapes: on the
// mesh, where every machine reduces its own winner share and the leader
// folds the k summaries (Classify, Regress), and at a pruned frontend, which
// holds every contacted seat's share itself (ClassifyShares, RegressShares).
// Both shapes reduce a share with the same helpers and fold the summaries
// with the same Vote and FoldMean, so their answers agree bit for bit by
// construction rather than by parallel maintenance.

// Classify turns distributed ℓ-NN winners into a classification: the label
// held by the majority of the winning points (ties broken toward the
// smallest label). Every machine passes its local winners from a Result;
// every machine returns the same label. Costs 2 rounds and O(k) messages:
// each machine sends its local label histogram, the leader merges and
// broadcasts the verdict.
func Classify(m kmachine.Env, leader int, winners []points.Item) (float64, error) {
	hist := make(map[float64]int64, 4)
	tally(hist, winners)
	if m.ID() != leader {
		m.Send(leader, encodeVotes(hist))
		return awaitVerdict(m)
	}
	if m.K() > 1 {
		m.EndRound()
		for _, msg := range m.Gather(m.K() - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != kindVotes {
				return 0, fmt.Errorf("core: expected votes from %d, got kind %d", msg.From, kind)
			}
			n := int(r.Varint())
			for i := 0; i < n; i++ {
				label := r.F64()
				hist[label] += int64(r.Varint())
			}
			if err := r.Err(); err != nil {
				return 0, fmt.Errorf("core: bad votes from %d: %w", msg.From, err)
			}
		}
	}
	best, err := Vote(hist)
	if err != nil {
		return 0, err
	}
	broadcastVerdict(m, best)
	return best, nil
}

// Regress turns distributed ℓ-NN winners into a regression estimate: the
// mean label of the winning points. Every machine returns the same value.
// 2 rounds, O(k) messages.
func Regress(m kmachine.Env, leader int, winners []points.Item) (float64, error) {
	own := sumLabels(winners)
	if m.ID() != leader {
		var w wire.Writer
		w.U8(kindSums)
		w.F64(own.Sum)
		w.Varint(uint64(own.Count))
		m.Send(leader, w.Bytes())
		return awaitVerdict(m)
	}
	parts := make([]Partial, m.K())
	parts[leader] = own
	if m.K() > 1 {
		m.EndRound()
		for _, msg := range m.Gather(m.K() - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != kindSums {
				return 0, fmt.Errorf("core: expected sums from %d, got kind %d", msg.From, kind)
			}
			parts[msg.From] = Partial{Sum: r.F64(), Count: int64(r.Varint())}
			if err := r.Err(); err != nil {
				return 0, fmt.Errorf("core: bad sums from %d: %w", msg.From, err)
			}
		}
	}
	mean, err := FoldMean(parts, leader)
	if err != nil {
		return 0, err
	}
	broadcastVerdict(m, mean)
	return mean, nil
}

// ClassifyShares is Classify evaluated in one place: shares[id] is seat id's
// winner share of one query (nil for a seat holding no winner).
func ClassifyShares(shares [][]points.Item) (float64, error) {
	hist := make(map[float64]int64, 4)
	for _, winners := range shares {
		tally(hist, winners)
	}
	return Vote(hist)
}

// RegressShares is Regress evaluated in one place: shares[id] is seat id's
// winner share of one query in the order the seat itself would sum it
// (ascending key order), and leader is the session's elected leader.
func RegressShares(shares [][]points.Item, leader int) (float64, error) {
	parts := make([]Partial, len(shares))
	for id, winners := range shares {
		parts[id] = sumLabels(winners)
	}
	return FoldMean(parts, leader)
}

// Vote is the Classify fold over the merged label histogram: the most
// frequent label, ties broken toward the smallest.
func Vote(hist map[float64]int64) (float64, error) {
	if len(hist) == 0 {
		return 0, fmt.Errorf("core: classify with no winners")
	}
	var best float64
	var bestCount int64 = -1
	for _, label := range sortedLabels(hist) {
		if hist[label] > bestCount {
			best, bestCount = label, hist[label]
		}
	}
	return best, nil
}

// Partial is one seat's Regress summary: the sum of its winners' labels,
// accumulated from zero in share order, and how many winners it covers.
type Partial struct {
	Sum   float64
	Count int64
}

// FoldMean is the Regress fold over the per-seat partials: the leader's own
// partial first, then every other seat's in ascending seat order — a seat
// without winners contributes an exact 0.0 — and one division at the end.
// float64 addition is neither associative nor commutative under rounding,
// so this order is the definition of the answer, not an implementation
// detail.
func FoldMean(parts []Partial, leader int) (float64, error) {
	sum, count := parts[leader].Sum, parts[leader].Count
	for id, p := range parts {
		if id != leader {
			sum += p.Sum
			count += p.Count
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("core: regress with no winners")
	}
	return sum / float64(count), nil
}

// tally adds one winner share's labels to a label histogram.
func tally(hist map[float64]int64, winners []points.Item) {
	for _, it := range winners {
		hist[it.Label]++
	}
}

// sumLabels reduces one winner share to its Regress partial.
func sumLabels(winners []points.Item) Partial {
	var p Partial
	for _, it := range winners {
		p.Sum += it.Label
		p.Count++
	}
	return p
}

// awaitVerdict is a worker's second aggregation round: having sent its
// summary to the leader, it waits for the broadcast verdict.
func awaitVerdict(m kmachine.Env) (float64, error) {
	m.EndRound()
	msg := m.Gather(1)[0]
	r := wire.NewReader(msg.Payload)
	if kind := r.U8(); kind != kindVerdict {
		return 0, fmt.Errorf("core: expected verdict, got kind %d", kind)
	}
	v := r.F64()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("core: bad verdict: %w", err)
	}
	return v, nil
}

func broadcastVerdict(m kmachine.Env, v float64) {
	var w wire.Writer
	w.U8(kindVerdict)
	w.F64(v)
	m.Broadcast(w.Bytes())
}

// sortedLabels lists a histogram's labels in ascending order, the one
// deterministic iteration order every consumer of a histogram uses.
func sortedLabels(hist map[float64]int64) []float64 {
	labels := make([]float64, 0, len(hist))
	for label := range hist {
		labels = append(labels, label)
	}
	sort.Float64s(labels)
	return labels
}

// encodeVotes serializes a label histogram with labels in ascending order
// for deterministic byte output.
func encodeVotes(hist map[float64]int64) []byte {
	labels := sortedLabels(hist)
	var w wire.Writer
	w.U8(kindVotes)
	w.Varint(uint64(len(labels)))
	for _, label := range labels {
		w.F64(label)
		w.Varint(uint64(hist[label]))
	}
	return w.Bytes()
}
