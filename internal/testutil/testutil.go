// Package testutil is the shared spin-up harness for the root package's
// remote serving tests: one generic helper that serves a loopback typed TCP
// cluster, dials it, and tears both down at test cleanup — replacing the
// per-point-type copies that had accreted across the remote_*_test.go
// files. It lives outside the test files so every suite (scalar, vector,
// metric variants, the pruned-dispatch metamorphic tests) builds its
// cluster the same way.
package testutil

import (
	"testing"

	"distknn"
)

// StartCluster serves a loopback TCP cluster of k nodes for pt over the
// given shards, dials it with pt's codec, and registers cleanup of both the
// client and the server with the test. fopts configures the frontend's
// epoch scheduler (zero value = defaults); pass a Pruner there to serve
// with metric-index pruned dispatch.
func StartCluster[P any](t *testing.T, pt distknn.PointType[P], k int, seed uint64, shards distknn.ShardProvider[P], opts distknn.NodeOptions, fopts distknn.FrontendOptions) (*distknn.LocalServer, *distknn.RemoteCluster[P]) {
	t.Helper()
	srv, err := distknn.ServeTypedLocalOptions(pt, k, seed, shards, opts, fopts)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := distknn.DialTypedClusterOptions(pt, srv.Addr(), distknn.ClientOptions{})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rc.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, rc
}

// Merged reassembles the global dataset a ShardProvider distributes, in
// shard-major order — the dataset an equivalent in-process cluster is built
// over. For providers with contiguous ID blocks (the uniform providers)
// shard-major order is ID order, so in-process clusters assign the same IDs
// 1..n; anchor-clustered providers permute points across shards and need
// ID-aware comparison instead.
func Merged[P any](t *testing.T, shards distknn.ShardProvider[P], k int) ([]P, []float64) {
	t.Helper()
	var pts []P
	var labels []float64
	for id := 0; id < k; id++ {
		s, err := shards(id, k)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, s.Points...)
		labels = append(labels, s.Labels...)
	}
	return pts, labels
}
