package bench

import (
	"fmt"
	"time"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// TCPBatch measures what batched dispatch buys over one-query-per-epoch on
// a resident TCP serving cluster — the socket analogue of the in-process
// KNNBatch, and the amortization E11 measures for session setup applied to
// the per-query frame/syscall/epoch overhead instead.
//
// One serving deployment answers the same query stream repeatedly, once per
// batch size: batch=1 is the pre-batching wire shape (one dispatched BSP
// epoch, two client frames and 2k control frames per query); batch=b ships
// b queries per dispatch, so the per-query share of that fixed overhead
// drops roughly b-fold while the protocol work inside the epoch stays the
// same (mean_rounds_per_q shrinks too, because the epoch's round count is
// shared). Results are exact and identical at every batch size.
func TCPBatch(p Params) ([]*Table, error) {
	p = p.withDefaults()
	k, l := 4, 16
	queries := 256
	perNode := 1 << 10
	batches := []int{1, 4, 16, 64}
	if p.Quick {
		// Small l keeps the epoch short, so the amortized per-epoch
		// overhead is a visible fraction even at smoke-test scale.
		k, l = 3, 4
		queries = 96
		perNode = 256
		batches = []int{1, 16}
	}
	if len(p.Ks) > 0 {
		k = p.Ks[0]
	}
	if len(p.Ls) > 0 {
		l = p.Ls[0]
	}
	seed := p.Seed

	t := &Table{
		ID: "E11b",
		Title: fmt.Sprintf("tcpbatch — batched dispatch vs one-query-per-epoch over loopback TCP (k=%d, l=%d, %d pts/node, %d queries)",
			k, l, perNode, queries),
		Note: "batch=1 pays one BSP epoch + frame round-trip per query; batch=b amortizes them b-fold; " +
			"results are bit-identical at every batch size",
		Header: []string{"batch", "epochs", "wall_ms", "qps", "mean_rounds_per_q", "mean_msgs_per_q", "speedup_vs_b1"},
	}

	srv, err := distknn.ServeTypedLocal(distknn.ScalarPoints(), k, seed, distknn.PaperShards(seed, perNode), distknn.NodeOptions{})
	if err != nil {
		return nil, fmt.Errorf("tcpbatch serve: %w", err)
	}
	defer srv.Close()
	rc, err := distknn.DialScalarCluster(srv.Addr())
	if err != nil {
		return nil, fmt.Errorf("tcpbatch dial: %w", err)
	}
	defer rc.Close()

	queryAt := func(i int) distknn.Scalar {
		return distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
	}
	// Warm up the session (and the client path) outside every clock.
	if _, _, err := rc.KNN(queryAt(0), l); err != nil {
		return nil, fmt.Errorf("tcpbatch warm-up: %w", err)
	}

	var baseQPS float64
	for bi, b := range batches {
		var rounds, msgs int64
		epochs := 0
		start := time.Now()
		for i := 0; i < queries; i += b {
			n := b
			if i+n > queries {
				n = queries - i
			}
			qs := make([]distknn.Scalar, n)
			for j := range qs {
				qs[j] = queryAt(i + j)
			}
			_, stats, err := rc.KNNBatch(qs, l)
			if err != nil {
				return nil, fmt.Errorf("tcpbatch b=%d query %d: %w", b, i, err)
			}
			rounds += int64(stats.Rounds)
			msgs += stats.Messages
			epochs++
		}
		wall := time.Since(start)
		qps := float64(queries) / wall.Seconds()
		if bi == 0 {
			baseQPS = qps
		}
		t.AddRow(d(b), d(epochs), f(wall.Seconds()*1e3), f(qps),
			f(float64(rounds)/float64(queries)), f(float64(msgs)/float64(queries)),
			f(qps/baseQPS))
	}
	return []*Table{t}, nil
}
