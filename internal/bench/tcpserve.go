package bench

import (
	"fmt"
	"time"

	"distknn"
	"distknn/internal/core"
	"distknn/internal/election"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/stats"
	"distknn/internal/transport/tcp"
	"distknn/internal/xrand"
)

// TCPServe measures what the resident TCP serving cluster saves over real
// loopback sockets — the socket analogue of E10b's simulator comparison.
//
// Two deployments answer the same serial query stream over the same shards:
//
//   - one-shot: every query pays the full pre-serving lifecycle — dial the
//     coordinator, rendezvous, build the k·(k−1)/2-connection mesh, elect a
//     leader, answer, tear everything down (what cmd/knnnode did per query
//     before the serving runtime);
//
//   - resident: one frontend + k resident nodes mesh up and elect once,
//     then every query is a single BSP epoch on the standing mesh, asked
//     through a RemoteCluster client.
//
// The wall-clock delta is pure session overhead removed from the
// steady-state path; mean_rounds additionally shows the election round(s)
// the resident path amortizes away.
func TCPServe(p Params) ([]*Table, error) {
	p = p.withDefaults()
	k, l := 4, 16
	queries := 64
	perNode := 1 << 10
	if p.Quick {
		k, l = 3, 8
		queries = 12
		perNode = 256
	}
	if len(p.Ks) > 0 {
		k = p.Ks[0]
	}
	if len(p.Ls) > 0 {
		l = p.Ls[0]
	}
	seed := p.Seed

	// Shared workload (the paper's synthetic scheme, via the same provider
	// knnnode -serve uses). Both deployments get their data pre-built so
	// the comparison isolates transport and session lifecycle, not data
	// loading.
	shards := distknn.PaperShards(seed, perNode)
	sets := make([]*points.Set[points.Scalar], k)
	for id := range sets {
		shard, err := shards(id, k)
		if err != nil {
			return nil, fmt.Errorf("tcpserve: %w", err)
		}
		set, err := points.NewSet(shard.Points, shard.Labels, points.ScalarMetric, shard.FirstID)
		if err != nil {
			return nil, fmt.Errorf("tcpserve: %w", err)
		}
		sets[id] = set
	}
	queryAt := func(i int) distknn.Scalar {
		return distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
	}

	t := &Table{
		ID:    "E11",
		Title: fmt.Sprintf("tcpserve — one-shot mesh per query vs resident mesh over loopback TCP (k=%d, l=%d, %d pts/node)", k, l, perNode),
		Note: "one-shot pays rendezvous + mesh build + election + teardown per query; " +
			"resident pays them once and runs one BSP epoch per query (mean_rounds excludes the amortized election)",
		Header: []string{"mode", "queries", "wall_ms", "qps", "mean_rounds", "mean_msgs"},
	}

	// Resident: one serving session, a stream of query epochs.
	srv, err := distknn.ServeTypedLocal(distknn.ScalarPoints(), k, seed, shards, distknn.NodeOptions{})
	if err != nil {
		return nil, fmt.Errorf("tcpserve resident: %w", err)
	}
	rc, err := distknn.DialScalarCluster(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("tcpserve dial: %w", err)
	}
	var resRounds, resMsgs []float64
	start := time.Now()
	for i := 0; i < queries; i++ {
		_, qs, err := rc.KNN(queryAt(i), l)
		if err != nil {
			rc.Close()
			srv.Close()
			return nil, fmt.Errorf("tcpserve resident query %d: %w", i, err)
		}
		resRounds = append(resRounds, float64(qs.Rounds))
		resMsgs = append(resMsgs, float64(qs.Messages))
	}
	resWall := time.Since(start)
	rc.Close()
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("tcpserve resident shutdown: %w", err)
	}

	// One-shot: a full cluster lifecycle per query over the same shards.
	var osRounds, osMsgs []float64
	start = time.Now()
	for i := 0; i < queries; i++ {
		q := queryAt(i)
		prog := func(m kmachine.Env) error {
			leader, err := election.MinGUID(m)
			if err != nil {
				return err
			}
			_, err = core.KNN(m, core.Config{Leader: leader, L: l}, sets[m.ID()].TopLItems(q, l))
			return err
		}
		metrics, errs, err := tcp.RunLocal(k, seed, prog)
		if err != nil {
			return nil, fmt.Errorf("tcpserve one-shot query %d: %w", i, err)
		}
		for id, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("tcpserve one-shot query %d node %d: %w", i, id, e)
			}
		}
		rounds, msgs := 0, int64(0)
		for _, met := range metrics {
			if met.Rounds > rounds {
				rounds = met.Rounds
			}
			msgs += met.Messages
		}
		osRounds = append(osRounds, float64(rounds))
		osMsgs = append(osMsgs, float64(msgs))
	}
	osWall := time.Since(start)

	t.AddRow("one-shot", d(queries), f(osWall.Seconds()*1e3),
		f(float64(queries)/osWall.Seconds()),
		f(stats.Summarize(osRounds).Mean), f(stats.Summarize(osMsgs).Mean))
	t.AddRow("resident", d(queries), f(resWall.Seconds()*1e3),
		f(float64(queries)/resWall.Seconds()),
		f(stats.Summarize(resRounds).Mean), f(stats.Summarize(resMsgs).Mean))
	return []*Table{t}, nil
}
