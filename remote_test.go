package distknn_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/testutil"
	"distknn/internal/xrand"
)

// remoteShards builds the deterministic per-node workload used by the
// remote-serving tests: node id holds perNode uniform scalars drawn from
// stream id of the seed, labels cycling 0..3 by global index, and the ID
// block [id·perNode+1, (id+1)·perNode].
func remoteShards(seed uint64, perNode int) distknn.ShardProvider[distknn.Scalar] {
	return func(id, k int) (distknn.Shard[distknn.Scalar], error) {
		rng := xrand.NewStream(seed, uint64(id))
		values := make([]distknn.Scalar, perNode)
		labels := make([]float64, perNode)
		for j := range values {
			values[j] = distknn.Scalar(rng.Uint64N(points.PaperDomain))
			labels[j] = float64((id*perNode + j) % 4)
		}
		return distknn.Shard[distknn.Scalar]{
			Points:  values,
			Labels:  labels,
			FirstID: uint64(id)*uint64(perNode) + 1,
		}, nil
	}
}

// mergedData reassembles the global dataset exactly as the shards hold it
// (same order, hence same IDs after NewScalarCluster assigns 1..n).
func mergedData(t *testing.T, seed uint64, k, perNode int) ([]uint64, []float64) {
	t.Helper()
	pts, labels := testutil.Merged(t, remoteShards(seed, perNode), k)
	values := make([]uint64, len(pts))
	for i, p := range pts {
		values[i] = uint64(p)
	}
	return values, labels
}

func startRemote(t *testing.T, k int, seed uint64, perNode int, opts distknn.NodeOptions) (*distknn.LocalServer, *distknn.RemoteCluster[distknn.Scalar]) {
	t.Helper()
	return testutil.StartCluster(t, distknn.ScalarPoints(), k, seed, remoteShards(seed, perNode), opts, distknn.FrontendOptions{})
}

// checkWaveCost pins the served cost law: a query the frontend answers by
// full scatter is one wave that contacts every seat once per point, and
// nodes exchange no bytes. Survivors, Iterations and FellBack describe the
// paper's selection protocol, which runs only in-process, so they are 0.
func checkWaveCost(t *testing.T, what string, st *distknn.QueryStats, k, points, leader int) {
	t.Helper()
	if st.Rounds != 1 || st.Messages != int64(k*points) || st.Bytes != 0 || st.Contacts != st.Messages ||
		st.Leader != leader || st.Survivors != 0 || st.Iterations != 0 || st.FellBack {
		t.Fatalf("%s: stats %+v, want 1 round, %d messages and contacts, 0 bytes, leader %d, no selection stats",
			what, *st, k*points, leader)
	}
}

// TestRemoteSingleNodeCostsNothing pins k = 1 on sockets: the one node
// ships its local top-ℓ in one wave and nothing crosses between nodes, and
// the answer's boundary is the in-process cluster's, whose leader holds
// every candidate and ends the run in round 0.
func TestRemoteSingleNodeCostsNothing(t *testing.T) {
	const seed, perNode, l = 7, 300, 20
	_, rc := startRemote(t, 1, seed, perNode, distknn.NodeOptions{})
	values, labels := mergedData(t, seed, 1, perNode)
	local, err := distknn.NewScalarCluster(values, labels, distknn.Options{Machines: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	for i := 0; i < 5; i++ {
		q := distknn.Scalar(xrand.NewStream(seed, uint64(i)).Uint64N(points.PaperDomain))
		_, rstats, err := rc.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		_, lstats, err := local.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		if rstats.Boundary != lstats.Boundary || lstats.Rounds != 0 || lstats.Messages != 0 {
			t.Fatalf("query %d: remote %+v, local %+v; want the same boundary, and 0 rounds in-process", i, *rstats, *lstats)
		}
		checkWaveCost(t, "k = 1", rstats, 1, 1, 0)
	}
}

// TestRemoteClusterMatchesInProcess is the headline acceptance test: a
// resident TCP cluster answers a stream of queries, and every answer is
// bit-identical to the in-process Cluster serving the same global dataset —
// KNN, Classify and Regress, single points and batches, at an ℓ where every
// Algorithm 2 sample in-process is a node's whole top-ℓ (15), at one far
// beyond that (600) and at the global point count (1 000). The served
// leader is the in-process one, and every served query obeys the wave cost
// law (checkWaveCost).
func TestRemoteClusterMatchesInProcess(t *testing.T) {
	const (
		k       = 4
		perNode = 250
		seed    = 42
		queries = 40
	)
	srv, rc := startRemote(t, k, seed, perNode, distknn.NodeOptions{})

	values, labels := mergedData(t, seed, k, perNode)
	local, err := distknn.NewScalarCluster(values, labels, distknn.Options{Machines: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	leader := local.Leader()
	if srv.Leader() != leader {
		t.Fatalf("served leader %d, in-process leader %d", srv.Leader(), leader)
	}
	queryAt := func(i int) distknn.Scalar {
		return distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
	}
	sameItems := func(what string, got, want []distknn.Item) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d neighbors remote, %d local", what, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s neighbor %d: remote %+v != local %+v", what, j, got[j], want[j])
			}
		}
	}
	for _, l := range []int{15, 600, k * perNode} {
		for i := 0; i < queries; i++ {
			q := queryAt(l*queries + i)
			what := fmt.Sprintf("l=%d query %d", l, i)
			remote, rstats, err := rc.KNN(q, l)
			if err != nil {
				t.Fatalf("%s remote: %v", what, err)
			}
			want, lstats, err := local.KNN(q, l)
			if err != nil {
				t.Fatalf("%s local: %v", what, err)
			}
			sameItems(what, remote, want)
			if rstats.Boundary != lstats.Boundary {
				t.Fatalf("%s: boundary remote %v, local %v", what, rstats.Boundary, lstats.Boundary)
			}
			checkWaveCost(t, what, rstats, k, 1, leader)

			rl, rcst, err := rc.Classify(q, l)
			if err != nil {
				t.Fatal(err)
			}
			ll, _, err := local.Classify(q, l)
			if err != nil {
				t.Fatal(err)
			}
			rm, rrst, err := rc.Regress(q, l)
			if err != nil {
				t.Fatal(err)
			}
			lm, _, err := local.Regress(q, l)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rl) != math.Float64bits(ll) || math.Float64bits(rm) != math.Float64bits(lm) {
				t.Fatalf("%s: classify remote %g local %g, regress remote %g local %g", what, rl, ll, rm, lm)
			}
			checkWaveCost(t, what+" classify", rcst, k, 1, leader)
			checkWaveCost(t, what+" regress", rrst, k, 1, leader)
		}
		batch := make([]distknn.Scalar, 9)
		for i := range batch {
			batch[i] = queryAt(l*queries + queries + i)
		}
		rres, rstats, err := rc.KNNBatch(batch, l)
		if err != nil {
			t.Fatalf("l=%d batch remote: %v", l, err)
		}
		lres, _, err := local.KNNBatch(batch, l)
		if err != nil {
			t.Fatalf("l=%d batch local: %v", l, err)
		}
		for i := range batch {
			what := fmt.Sprintf("l=%d batch point %d", l, i)
			sameItems(what, rres[i].Neighbors, lres[i].Neighbors)
			if rres[i].Boundary != lres[i].Boundary {
				t.Fatalf("%s: boundary remote %v, local %v", what, rres[i].Boundary, lres[i].Boundary)
			}
		}
		checkWaveCost(t, fmt.Sprintf("l=%d batch", l), rstats, k, len(batch), leader)
	}
}

// TestRemoteClusterDeterministicPerSeed re-serves the same seed and query
// stream on a fresh deployment and demands a bit-identical replay — results
// and per-query protocol costs.
func TestRemoteClusterDeterministicPerSeed(t *testing.T) {
	const (
		k       = 3
		perNode = 200
		seed    = 77
		queries = 25
		l       = 8
	)
	type obs struct {
		boundary distknn.Key
		rounds   int
		messages int64
		bytes    int64
	}
	run := func() []obs {
		_, rc := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
		out := make([]obs, queries)
		for i := range out {
			q := distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
			_, stats, err := rc.KNN(q, l)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = obs{stats.Boundary, stats.Rounds, stats.Messages, stats.Bytes}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: run 1 %+v != run 2 %+v", i, a[i], b[i])
		}
	}
}

func TestRemoteClusterConcurrentClients(t *testing.T) {
	const (
		k       = 3
		perNode = 150
		seed    = 5
		l       = 6
	)
	srv, _ := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer rc.Close()
			for i := 0; i < 10; i++ {
				q := distknn.Scalar(xrand.NewStream(seed, uint64(w)<<32+uint64(i)).Uint64N(points.PaperDomain))
				if _, _, err := rc.KNN(q, l); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRemoteClusterValidation(t *testing.T) {
	const perNode = 50
	_, rc := startRemote(t, 2, 11, perNode, distknn.NodeOptions{})
	if _, _, err := rc.KNN(distknn.Scalar(1), 0); err == nil {
		t.Error("l=0 should fail")
	}
	if _, _, err := rc.KNN(distknn.Scalar(1), 2*perNode+1); err == nil {
		t.Error("l beyond the global point count should fail")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, _, err := rc.KNN(distknn.Scalar(1), 2*perNode); err != nil {
		t.Errorf("l at the global point count should work: %v", err)
	}
}

// TestTCPServeSmoke is the CI smoke test for the socket serving path: tiny
// cluster, a handful of queries, alg2 against the simple baseline oracle.
func TestTCPServeSmoke(t *testing.T) {
	const (
		k       = 2
		perNode = 60
		seed    = 3
		l       = 5
	)
	_, rc := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	values, labels := mergedData(t, seed, k, perNode)
	set, err := points.NewSet(values, labels, func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		q := xrand.NewStream(seed, 900+uint64(i)).Uint64N(points.PaperDomain)
		got, _, err := rc.KNN(distknn.Scalar(q), l)
		if err != nil {
			t.Fatal(err)
		}
		want := set.BruteKNN(q, l)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Key != want[j].Key {
				t.Fatalf("query %d neighbor %d: %v != %v", i, j, got[j].Key, want[j].Key)
			}
		}
	}
}

// TestRemoteLabelFoldsCostWhatKNNCosts is the socket twin of the in-process
// cost convention: on twin mesh-plan servers (same shards and session seed,
// so each server's first query runs as epoch 1 on the same seed), Classify
// and Regress report KNN's rounds, messages, bytes and boundary — the label
// is folded at the frontend from the winner shares, not on the mesh.
func TestRemoteLabelFoldsCostWhatKNNCosts(t *testing.T) {
	const (
		k       = 3
		perNode = 150
		seed    = 13
		l       = 10
	)
	q := distknn.Scalar(xrand.NewStream(seed, 1<<40).Uint64N(points.PaperDomain))
	_, knn := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	_, want, err := knn.KNN(q, l)
	if err != nil {
		t.Fatal(err)
	}
	_, classify := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	_, cs, err := classify.Classify(q, l)
	if err != nil {
		t.Fatal(err)
	}
	_, regress := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	_, rs, err := regress.Regress(q, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		op    string
		stats *distknn.QueryStats
	}{{"Classify", cs}, {"Regress", rs}} {
		if *got.stats != *want {
			t.Errorf("%s cost %+v, KNN cost %+v", got.op, *got.stats, *want)
		}
	}
}

// TestRemoteLabelFoldsMatchBruteForce checks mesh-plan Classify and Regress
// over sockets against a brute-force oracle that shares nothing with the
// serving stack, by Float64bits: the majority label with ties toward the
// lowest, and the mean summed the way the cluster defines it — each seat
// adds its own winners in ascending key order, then the leader's sum comes
// first and the other seats' follow in ascending seat order. The four
// class labels mix magnitudes, so the float64 sum depends on that order,
// and the seed elects a leader other than seat 0, where leader-first and
// ascending seat order would coincide.
func TestRemoteLabelFoldsMatchBruteForce(t *testing.T) {
	const (
		k       = 4
		perNode = 200
		seed    = 13
		l       = 25
	)
	classes := []float64{0.1, 1e15 + 0.3, -1e15, 0.7}
	shards := func(id, k int) (distknn.Shard[distknn.Scalar], error) {
		sh, err := remoteShards(seed, perNode)(id, k)
		for j, c := range sh.Labels {
			sh.Labels[j] = classes[int(c)]
		}
		return sh, err
	}
	_, rc := testutil.StartCluster(t, distknn.ScalarPoints(), k, seed, shards, distknn.NodeOptions{}, distknn.FrontendOptions{})
	// The union of the shards as the oracle sees it: each point's value,
	// global ID, label and seat.
	type seatPoint struct {
		value uint64
		id    uint64
		label float64
		seat  int
	}
	var all []seatPoint
	for seat := 0; seat < k; seat++ {
		sh, err := shards(seat, k)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range sh.Points {
			all = append(all, seatPoint{value: uint64(p), id: sh.FirstID + uint64(j), label: sh.Labels[j], seat: seat})
		}
	}
	key := func(p seatPoint, q uint64) distknn.Key {
		d := p.value - q
		if q > p.value {
			d = q - p.value
		}
		return distknn.Key{Dist: d, ID: p.id}
	}
	for i := 0; i < 20; i++ {
		q := xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain)
		sort.Slice(all, func(a, b int) bool { return key(all[a], q).Less(key(all[b], q)) })
		top := all[:l]

		count := make(map[float64]int)
		for _, p := range top {
			count[p.label]++
		}
		wantLabel, best := math.Inf(1), 0
		for label, c := range count {
			if c > best || (c == best && label < wantLabel) {
				wantLabel, best = label, c
			}
		}
		label, stats, err := rc.Classify(distknn.Scalar(q), l)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(label) != math.Float64bits(wantLabel) {
			t.Fatalf("query %d: classified %v, brute-force vote %v", i, label, wantLabel)
		}
		if stats.Leader == 0 {
			t.Fatal("the seed elected seat 0, where the summation orders coincide; pick another seed")
		}

		// top is in ascending key order, so each seat's sum runs in its own
		// share order.
		sums := make([]float64, k)
		for _, p := range top {
			sums[p.seat] += p.label
		}
		wantMean := sums[stats.Leader]
		for seat, sum := range sums {
			if seat != stats.Leader {
				wantMean += sum
			}
		}
		wantMean /= l
		mean, _, err := rc.Regress(distknn.Scalar(q), l)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(mean) != math.Float64bits(wantMean) {
			t.Fatalf("query %d: regressed %v (%x), leader-first brute-force mean %v (%x)", i, mean, math.Float64bits(mean), wantMean, math.Float64bits(wantMean))
		}
	}
}

// TestRemoteRejectsResultsBeyondOneFrame pins the frame-size admission
// bound: a query whose ℓ items per point cannot fit one frame — as a node's
// result, or as the reply — is refused at the frontend with a plain error,
// before any node answers it. Without the bound, a node whose result
// overflows wire.MaxFrame fails its write and drops its own control
// connection, retiring its seat; and a reply that overflows is never sent,
// so the client waits until its deadline. Both shapes are tried, each under
// a client Timeout, and each cluster must still have every seat and answer
// a follow-up query.
func TestRemoteRejectsResultsBeyondOneFrame(t *testing.T) {
	for _, tc := range []struct {
		name             string
		k, perNode, n, l int
	}{
		{"node result", 1, 3000, 1000, 3000},
		{"reply", 4, 1000, 800, 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 5
			reg := distknn.NewMetrics()
			srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), tc.k, seed, remoteShards(seed, tc.perNode),
				distknn.NodeOptions{}, distknn.FrontendOptions{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(),
				distknn.ClientOptions{Timeout: 20 * time.Second, RetryWait: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			batch := make([]distknn.Scalar, tc.n)
			for i := range batch {
				batch[i] = distknn.Scalar(xrand.NewStream(seed, uint64(i)).Uint64N(points.PaperDomain))
			}
			_, _, err = rc.KNNBatch(batch, tc.l)
			if err == nil || errors.Is(err, distknn.ErrClusterDegraded) || !strings.Contains(err.Error(), "exceeds one frame") {
				t.Fatalf("batch of %d at l=%d: got %v, want a plain frame-size refusal", tc.n, tc.l, err)
			}
			if got := reg.Snapshot().Counters["frontend_epochs_admitted_total"]; got != 0 {
				t.Fatalf("the refused batch consumed %d epochs, want 0", got)
			}
			// Every seat still answers: a retired seat would fail this
			// query as degraded, and the client does not retry.
			if _, _, err := rc.KNN(batch[0], tc.l); err != nil {
				t.Fatalf("follow-up query: %v", err)
			}
		})
	}
}
