package tcp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"distknn/internal/core"
	"distknn/internal/election"
	"distknn/internal/keys"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// instanceFor generates machine i's dataset deterministically from (seed, i)
// — the same scheme a multi-process deployment would use.
func instanceFor(seed uint64, id, n int) *points.Set[points.Scalar] {
	rng := xrand.NewStream(seed, uint64(id))
	s := points.GenUniformScalars(rng, n, points.PaperDomain)
	for j := range s.IDs {
		s.IDs[j] = uint64(id)*uint64(n) + uint64(j) + 1
	}
	return s
}

// setHandler serves seat id's instanceFor shard from its block scan, as a
// served scalar node does; relabel, when set, rewrites the shard's labels.
type setHandler struct {
	seed    uint64
	n       int
	relabel func(labels []float64)
	set     *points.Set[points.Scalar]
}

func (h *setHandler) Load(id, k int) (wire.Ready, error) {
	h.set = instanceFor(h.seed, id, h.n)
	if h.relabel != nil {
		h.relabel(h.set.Labels)
	}
	return wire.Ready{ShardLen: int64(h.n), PointTag: wire.PointScalar}, nil
}

func (h *setHandler) Direct(q wire.Query, qi int, ceil keys.Key) ([]points.Item, error) {
	v, err := wire.DecodeScalarPoint(q.Points[qi])
	if err != nil {
		return nil, err
	}
	return h.set.TopLItems(points.Scalar(v), q.L, ceil), nil
}

// TestFullKNNPipelineOverTCP is the headline integration: a served cluster
// over real sockets answers KNN, Classify and Regress, each node shipping
// its local top-ℓ and the frontend selecting and folding, validated against
// a brute-force oracle over the merged data.
func TestFullKNNPipelineOverTCP(t *testing.T) {
	const k, n, l, seed = 4, 400, 25, 99
	// Four classes, so the vote has real contenders.
	relabel := func(labels []float64) {
		for j, label := range labels {
			labels[j] = math.Floor(4 * label)
		}
	}
	lc := startEchoClusterOptions(t, k, seed, FrontendOptions{}, func() Handler {
		return &setHandler{seed: seed, n: n, relabel: relabel}
	})
	client := dialNoRetry(t, lc.Addr())
	var parts []*points.Set[points.Scalar]
	for i := 0; i < k; i++ {
		set := instanceFor(seed, i, n)
		relabel(set.Labels)
		parts = append(parts, set)
	}
	all := points.Merge(parts)
	for i := 0; i < 10; i++ {
		v := xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain)
		want := all.BruteKNN(points.Scalar(v), l)
		rep, err := client.Do(scalarQuery(wire.OpKNN, l, v))
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Results[0]
		if len(got.Items) != l || got.Boundary != want[l-1].Key {
			t.Fatalf("query %d: %d items, boundary %v; want %d, %v", i, len(got.Items), got.Boundary, l, want[l-1].Key)
		}
		for j := range want {
			if got.Items[j] != want[j] {
				t.Fatalf("query %d item %d: %+v, want %+v", i, j, got.Items[j], want[j])
			}
		}
		rep, err = client.Do(scalarQuery(wire.OpClassify, l, v))
		if err != nil {
			t.Fatal(err)
		}
		if label := rep.Results[0].Value; label != bruteVote(want) {
			t.Errorf("query %d: classified %g, brute-force vote %g", i, label, bruteVote(want))
		}
		// Regress sums each seat's share in key order, the leader's first.
		shares := make([][]points.Item, k)
		for _, it := range want {
			seat := int((it.Key.ID - 1) / n)
			shares[seat] = append(shares[seat], it)
		}
		mean, err := core.RegressShares(shares, election.Leader(seed, k))
		if err != nil {
			t.Fatal(err)
		}
		rep, err = client.Do(scalarQuery(wire.OpRegress, l, v))
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Results[0].Value; math.Float64bits(got) != math.Float64bits(mean) {
			t.Errorf("query %d: regressed %v, leader-ordered brute-force mean %v", i, got, mean)
		}
	}
}

// bruteVote is the majority label of items, ties toward the smallest.
func bruteVote(items []points.Item) float64 {
	count := make(map[float64]int)
	for _, it := range items {
		count[it.Label]++
	}
	best, bestCount := math.Inf(1), 0
	for label, c := range count {
		if c > bestCount || (c == bestCount && label < best) {
			best, bestCount = label, c
		}
	}
	return best
}

// failingHandler is an echoHandler whose every seat from 1 up fails the
// magic value 99, each with its own message.
type failingHandler struct{ echoHandler }

func (h *failingHandler) Direct(q wire.Query, qi int, ceil keys.Key) ([]points.Item, error) {
	if v, _ := wire.DecodeScalarPoint(q.Points[qi]); v == 99 && h.id >= 1 {
		return nil, fmt.Errorf("boom on node %d", h.id)
	}
	return h.echoHandler.Direct(q, qi, ceil)
}

// TestErrorPropagatesAcrossCluster pins how a node's failure reaches the
// client: the wave fails as a whole with a plain (not degraded) error, and
// when several seats fail it, the client is told the lowest seat's message
// every time, whatever order the reports arrive in. No seat is lost, so the
// next query answers.
func TestErrorPropagatesAcrossCluster(t *testing.T) {
	const k = 3
	lc := startEchoClusterOptions(t, k, 4, FrontendOptions{}, func() Handler { return &failingHandler{} })
	client := dialNoRetry(t, lc.Addr())
	for i := 0; i < 10; i++ {
		_, err := client.Do(scalarQuery(wire.OpKNN, k, 99))
		if err == nil || !strings.Contains(err.Error(), "query failed: node 1: boom on node 1") || strings.Contains(err.Error(), "degraded") {
			t.Fatalf("attempt %d: got %v, want node 1's failure", i, err)
		}
	}
	rep, err := client.Do(scalarQuery(wire.OpKNN, k, 5))
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, rep, k, 5, lc.Leader())
}

// TestEpochFrameBudget pins what a query costs on the wire: one wave is one
// dispatch frame to every seat and one result frame back from each, and
// nothing else crosses a node's connection — the node counters hold exactly
// those frames' bytes, and each node answered every wave once.
func TestEpochFrameBudget(t *testing.T) {
	const k, queries = 4, 6
	reg := obs.NewRegistry()
	lc, err := ServeLocalOptions(k, 5, FrontendOptions{}, reg, func() Handler { return &echoHandler{} })
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	client := dialNoRetry(t, lc.Addr())
	before := reg.Snapshot().Counters
	var in, out int64
	for i := 0; i < queries; i++ {
		v := uint64(i + 3)
		if _, err := client.Do(scalarQuery(wire.OpKNN, k, v)); err != nil {
			t.Fatal(err)
		}
		epoch := uint64(i + 1)
		var dw wire.Writer
		wire.AppendDispatchDirect(&dw, epoch, scalarQuery(wire.OpKNN, k, v), nil)
		in += k * int64(dw.Len()+4)
		for id := 0; id < k; id++ {
			var rw wire.Writer
			wire.AppendNodeResult(&rw, wire.NodeResult{Epoch: epoch, Node: id, Queries: []wire.NodeQueryResult{{
				Winners: []points.Item{{Key: keys.Key{Dist: v*10 + uint64(id), ID: uint64(id) + 1}}},
			}}})
			out += int64(rw.Len() + 4)
		}
	}
	after := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"node_epochs_served_total":  k * queries,
		"node_ctrl_bytes_in_total":  in,
		"node_ctrl_bytes_out_total": out,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s grew by %d over %d queries, want %d", name, got, queries, want)
		}
	}
}

// TestSingleNodeCluster serves one seat: its local top-ℓ is the answer, at
// the wave's cost of one round and one contact.
func TestSingleNodeCluster(t *testing.T) {
	lc, client := startEchoCluster(t, 1, 7)
	rep, err := client.Do(scalarQuery(wire.OpKNN, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, rep, 1, 8, lc.Leader())
	if rep.Rounds != 1 || rep.Messages != 1 {
		t.Fatalf("cost %d rounds / %d messages, want 1 / 1", rep.Rounds, rep.Messages)
	}
}
