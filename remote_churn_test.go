package distknn_test

import (
	"errors"
	"testing"
	"time"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// churnQuery returns the i-th point of the deterministic churn query
// stream.
func churnQuery(seed uint64, i int) distknn.Scalar {
	return distknn.Scalar(xrand.NewStream(seed, 1<<44+uint64(i)).Uint64N(points.PaperDomain))
}

// waitServing polls with probe queries until the cluster answers again
// after churn; probe queries consume epoch ordinals, which must not matter
// (every algorithm is exact, so answers are seed-independent).
func waitServing(t *testing.T, rc *distknn.RemoteCluster[distknn.Scalar], q distknn.Scalar, l int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, err := rc.KNN(q, l); err == nil {
			return
		} else if !errors.Is(err, distknn.ErrClusterDegraded) {
			t.Fatalf("waiting for recovery: non-degraded failure: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not recover from churn")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRemoteChurnBitIdenticalAfterRejoin is the acceptance walk for node
// churn on the real query pipeline: a resident node is lost mid-session,
// the degraded window fails only its own queries, and once a fresh process
// re-joins (rebuilding the shard from the same deterministic provider) the
// full query stream's answers are bit-identical to an uninterrupted
// cluster's — before, across and after the outage.
func TestRemoteChurnBitIdenticalAfterRejoin(t *testing.T) {
	const (
		k       = 3
		seed    = 1717
		perNode = 400
		l       = 7
		total   = 40
		lost    = 20 // queries served before the node is lost
	)
	shards := remoteShards(seed, perNode)

	// Reference: an uninterrupted cluster answering the whole stream.
	ref, refRC := startRemote(t, k, seed, perNode, distknn.NodeOptions{})
	defer refRC.Close()
	defer ref.Close()
	want := make([][]distknn.Item, total)
	for i := range want {
		items, _, err := refRC.KNN(churnQuery(seed, i), l)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		want[i] = items
	}

	// The churned cluster: same seed, same shards, same stream.
	srv, err := distknn.ServeTypedLocal(distknn.ScalarPoints(), k, seed, shards, distknn.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	check := func(i int) {
		t.Helper()
		items, _, err := rc.KNN(churnQuery(seed, i), l)
		if err != nil {
			t.Fatalf("churned cluster query %d: %v", i, err)
		}
		if len(items) != len(want[i]) {
			t.Fatalf("query %d: %d items, want %d", i, len(items), len(want[i]))
		}
		for j := range items {
			if items[j] != want[i][j] {
				t.Fatalf("query %d item %d: %+v, want %+v — churn must not change answers", i, j, items[j], want[i][j])
			}
		}
	}
	for i := 0; i < lost; i++ {
		check(i)
	}

	// Lose node 1. The degraded window fails queries with the retryable
	// error and nothing else.
	if err := srv.EvictNode(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.KNN(churnQuery(seed, lost), l); err == nil || !errors.Is(err, distknn.ErrClusterDegraded) {
		t.Fatalf("query during the outage: got %v, want a degraded error", err)
	}

	// A fresh process re-joins: plain ServeTypedNode, no flags — the
	// frontend hands it the absent seat and it rebuilds shard 1.
	nodeDone := make(chan error, 1)
	go func() {
		nodeDone <- distknn.ServeTypedNode(distknn.ScalarPoints(), srv.Addr(), "127.0.0.1:0", shards, distknn.NodeOptions{})
	}()
	waitServing(t, rc, churnQuery(seed, 0), l)

	for i := lost; i < total; i++ {
		check(i)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close after churn: %v", err)
	}
	if err := <-nodeDone; err != nil {
		t.Fatalf("re-joined node exited with %v", err)
	}
}

// TestRemoteChurnVectorRejoinRebuildsIndex re-runs a compact churn cycle on
// the vector pipeline, whose re-join path must also rebuild the k-d tree
// index over the restored shard.
func TestRemoteChurnVectorRejoinRebuildsIndex(t *testing.T) {
	const (
		k       = 2
		seed    = 99
		perNode = 200
		dim     = 4
		l       = 5
	)
	shards := distknn.UniformVectorShards(seed, perNode, dim)
	srv, err := distknn.ServeTypedLocal(distknn.VectorPoints(), k, seed, shards, distknn.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedClusterOptions(distknn.VectorPoints(), srv.Addr(), distknn.ClientOptions{NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	q := make(distknn.Vector, dim)
	for j := range q {
		q[j] = 0.25 * float64(j+1)
	}
	want, _, err := rc.KNN(q, l)
	if err != nil {
		t.Fatal(err)
	}

	if err := srv.EvictNode(0); err != nil {
		t.Fatal(err)
	}
	nodeDone := make(chan error, 1)
	go func() {
		nodeDone <- distknn.ServeTypedNode(distknn.VectorPoints(), srv.Addr(), "127.0.0.1:0", shards, distknn.NodeOptions{})
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		items, _, err := rc.KNN(q, l)
		if err == nil {
			for j := range items {
				if items[j] != want[j] {
					t.Fatalf("item %d after vector re-join: %+v, want %+v", j, items[j], want[j])
				}
			}
			break
		}
		if !errors.Is(err, distknn.ErrClusterDegraded) {
			t.Fatalf("vector churn: non-degraded failure: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("vector cluster did not recover")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close after churn: %v", err)
	}
	if err := <-nodeDone; err != nil {
		t.Fatalf("re-joined vector node exited with %v", err)
	}
}

// TestRemoteClientRidesOutChurnTransparently exercises the client-side
// retry: with a generous RetryWait, a single KNN call issued into the
// degraded window succeeds once the replacement node is seated — the
// caller never sees the outage.
func TestRemoteClientRidesOutChurnTransparently(t *testing.T) {
	const (
		k       = 2
		seed    = 55
		perNode = 200
		l       = 5
	)
	shards := remoteShards(seed, perNode)
	srv, err := distknn.ServeTypedLocal(distknn.ScalarPoints(), k, seed, shards, distknn.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{
		QueryTimeout: 30 * time.Second,
		RetryWait:    10 * time.Second, // ample for a 200-point re-join
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	q := churnQuery(seed, 0)
	want, _, err := rc.KNN(q, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EvictNode(1); err != nil {
		t.Fatal(err)
	}
	nodeDone := make(chan error, 1)
	go func() {
		nodeDone <- distknn.ServeTypedNode(distknn.ScalarPoints(), srv.Addr(), "127.0.0.1:0", shards, distknn.NodeOptions{})
	}()
	// One call, issued while the cluster is degraded: the transparent
	// retry waits out the re-join.
	items, _, err := rc.KNN(q, l)
	if err != nil {
		t.Fatalf("KNN across the churn window: %v", err)
	}
	for j := range items {
		if items[j] != want[j] {
			t.Fatalf("item %d across churn: %+v, want %+v", j, items[j], want[j])
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after churn: %v", err)
	}
	if err := <-nodeDone; err != nil {
		t.Fatalf("re-joined node exited with %v", err)
	}
}
