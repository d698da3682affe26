package distknn_test

import (
	"sync"
	"testing"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// This file pins the multiplexed client's headline promise: one connection
// with many queries outstanding — completing out of order through the
// frontend's pipelined, server-batched scheduler — returns bit-identical
// answers to the same query stream issued by independent serial clients.

// muxAnswer is one query's comparable outcome on the KNN path.
type muxAnswer struct {
	items    []distknn.Item
	boundary distknn.Key
}

func checkMuxAnswer(t *testing.T, i int, items []distknn.Item, boundary distknn.Key, want muxAnswer) {
	t.Helper()
	if len(items) != len(want.items) {
		t.Errorf("query %d: %d neighbors, want %d", i, len(items), len(want.items))
		return
	}
	for j := range want.items {
		if items[j] != want.items[j] {
			t.Errorf("query %d neighbor %d: %+v != %+v", i, j, items[j], want.items[j])
			return
		}
	}
	if boundary != want.boundary {
		t.Errorf("query %d: boundary %v != %v", i, boundary, want.boundary)
	}
}

// muxReplay issues every query through one RemoteCluster with up to
// `outstanding` KNNAsync handles in flight and checks each against the
// serial ground truth.
func muxReplay[P any](t *testing.T, rc *distknn.RemoteCluster[P], qs []P, l, outstanding int, want []muxAnswer) {
	t.Helper()
	sem := make(chan struct{}, outstanding)
	var wg sync.WaitGroup
	for i := range qs {
		sem <- struct{}{}
		wg.Add(1)
		h := rc.KNNAsync(qs[i], l)
		go func(i int) {
			defer wg.Done()
			items, stats, err := h.Wait()
			<-sem
			if err != nil {
				t.Errorf("mux query %d: %v", i, err)
				return
			}
			checkMuxAnswer(t, i, items, stats.Boundary, want[i])
		}(i)
	}
	wg.Wait()
}

// TestMuxClientDeterministicScalar: a 200-query scalar stream answered by
// 16 serial clients (each walking its stride of the stream, one query at a
// time) is bit-identical to the same stream pushed through ONE multiplexed
// connection with 16 queries outstanding against a pipelining +
// server-batching frontend.
func TestMuxClientDeterministicScalar(t *testing.T) {
	const (
		k           = 3
		perNode     = 300
		seed        = 1234
		queries     = 200
		outstanding = 16
		l           = 11
	)
	qs := make([]distknn.Scalar, queries)
	for i := range qs {
		qs[i] = distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
	}

	// Ground truth: 16 clients, each issuing its queries strictly serially
	// against a default (unpipelined, unbatched) frontend.
	want := make([]muxAnswer, queries)
	func() {
		srv, err := distknn.ServeTypedLocal(distknn.ScalarPoints(), k, seed, remoteShards(seed, perNode), distknn.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for c := 0; c < outstanding; c++ {
			rc, err := distknn.DialTypedCluster(distknn.ScalarPoints(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := c; i < queries; i += outstanding {
				items, stats, err := rc.KNN(qs[i], l)
				if err != nil {
					rc.Close()
					t.Fatalf("serial query %d: %v", i, err)
				}
				want[i] = muxAnswer{items: items, boundary: stats.Boundary}
			}
			rc.Close()
		}
	}()

	srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), k, seed,
		remoteShards(seed, perNode), distknn.NodeOptions{}, schedFrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedCluster(distknn.ScalarPoints(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	muxReplay(t, rc, qs, l, outstanding, want)
}

// TestMuxClientDeterministicVector runs the same one-connection
// mux-vs-serial bit-identity walk on the vector path, whose coalesced
// lockstep epochs multiplex k-d-tree-backed sub-programs.
func TestMuxClientDeterministicVector(t *testing.T) {
	const (
		k           = 3
		perNode     = 150
		dim         = 4
		seed        = 4321
		queries     = 200
		outstanding = 16
		l           = 6
	)
	if testing.Short() {
		t.Skip("long concurrent walk")
	}
	qs := make([]distknn.Vector, queries)
	for i := range qs {
		qs[i] = vectorQueryAt(seed, dim, i)
	}

	want := make([]muxAnswer, queries)
	func() {
		srv, err := distknn.ServeTypedLocal(distknn.VectorPoints(), k, seed, distknn.UniformVectorShards(seed, perNode, dim), distknn.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for c := 0; c < outstanding; c++ {
			rc, err := distknn.DialTypedCluster(distknn.VectorPoints(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := c; i < queries; i += outstanding {
				items, stats, err := rc.KNN(qs[i], l)
				if err != nil {
					rc.Close()
					t.Fatalf("serial query %d: %v", i, err)
				}
				want[i] = muxAnswer{items: items, boundary: stats.Boundary}
			}
			rc.Close()
		}
	}()

	srv, err := distknn.ServeTypedLocalOptions(distknn.VectorPoints(), k, seed,
		distknn.UniformVectorShards(seed, perNode, dim), distknn.NodeOptions{}, schedFrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := distknn.DialTypedCluster(distknn.VectorPoints(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	muxReplay(t, rc, qs, l, outstanding, want)
}
