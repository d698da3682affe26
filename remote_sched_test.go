package distknn_test

import (
	"sync"
	"testing"
	"time"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// This file pins the frontend epoch scheduler's headline promise: a stream
// of queries issued by many concurrent clients — with epoch pipelining and
// transparent server-side batching enabled — returns bit-identical answers
// to the same stream issued serially against a frontend with both features
// off. Epoch ordinals (and with them per-epoch seeds) are assigned in
// admission order, which differs run to run under concurrency, but every
// algorithm is exact, so seeds steer only sampling and round counts — never
// results.

// schedFrontendOptions is the pipelining-plus-coalescing configuration the
// determinism tests exercise: a wide window and an exaggerated linger so
// concurrently arriving queries actually coalesce.
func schedFrontendOptions() distknn.FrontendOptions {
	return distknn.FrontendOptions{
		Window:      8,
		ServerBatch: true,
		Linger:      2 * time.Millisecond,
	}
}

// serialAnswer is one query's full comparable outcome.
type serialAnswer struct {
	items    []distknn.Item
	boundary distknn.Key
	value    float64 // Classify result
}

// checkAnswer compares one concurrent-path answer against the serial
// ground truth.
func checkAnswer(t *testing.T, i int, items []distknn.Item, boundary distknn.Key, value float64, want serialAnswer) {
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
	if value != want.value {
		t.Errorf("query %d: classify %g != %g", i, value, want.value)
	}
}

// TestSchedulerDeterministicScalar: a 200-query scalar stream issued from
// 8 concurrent clients against a pipelining + server-batching frontend is
// bit-identical to the same stream issued serially with both features off.
func TestSchedulerDeterministicScalar(t *testing.T) {
	const (
		k       = 3
		perNode = 300
		seed    = 1234
		queries = 200
		clients = 8
		l       = 11
	)
	qs := make([]distknn.Scalar, queries)
	for i := range qs {
		qs[i] = distknn.Scalar(xrand.NewStream(seed, 1<<40+uint64(i)).Uint64N(points.PaperDomain))
	}

	// Serial ground truth: default frontend (no server batching), one
	// client, one query at a time.
	want := make([]serialAnswer, queries)
	func() {
		srv, err := distknn.ServeTypedLocal(distknn.ScalarPoints(), k, seed, remoteShards(seed, perNode), distknn.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rc, err := distknn.DialTypedCluster(distknn.ScalarPoints(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		for i, q := range qs {
			items, stats, err := rc.KNN(q, l)
			if err != nil {
				t.Fatalf("serial query %d: %v", i, err)
			}
			value, _, err := rc.Classify(q, l)
			if err != nil {
				t.Fatalf("serial classify %d: %v", i, err)
			}
			want[i] = serialAnswer{items: items, boundary: stats.Boundary, value: value}
		}
	}()

	// Concurrent replay: same shards and seed, pipelined window plus
	// transparent server-side batching, 8 independent client connections.
	srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), k, seed,
		remoteShards(seed, perNode), distknn.NodeOptions{}, schedFrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rc, err := distknn.DialTypedCluster(distknn.ScalarPoints(), srv.Addr())
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer rc.Close()
			for i := c; i < queries; i += clients {
				items, stats, err := rc.KNN(qs[i], l)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				value, _, err := rc.Classify(qs[i], l)
				if err != nil {
					t.Errorf("classify %d: %v", i, err)
					return
				}
				checkAnswer(t, i, items, stats.Boundary, value, want[i])
			}
		}(c)
	}
	wg.Wait()
}

// TestSchedulerDeterministicVector runs the same concurrent-vs-serial
// bit-identity walk on the vector path, where the coalesced lockstep
// epochs multiplex k-d-tree-backed sub-programs.
func TestSchedulerDeterministicVector(t *testing.T) {
	const (
		k       = 3
		perNode = 150
		dim     = 4
		seed    = 4321
		queries = 200
		clients = 8
		l       = 6
	)
	if testing.Short() {
		t.Skip("long concurrent walk")
	}
	qs := make([]distknn.Vector, queries)
	for i := range qs {
		qs[i] = vectorQueryAt(seed, dim, i)
	}

	want := make([]serialAnswer, queries)
	func() {
		srv, err := distknn.ServeTypedLocal(distknn.VectorPoints(), k, seed, distknn.UniformVectorShards(seed, perNode, dim), distknn.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rc, err := distknn.DialTypedCluster(distknn.VectorPoints(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		for i, q := range qs {
			items, stats, err := rc.KNN(q, l)
			if err != nil {
				t.Fatalf("serial query %d: %v", i, err)
			}
			value, _, err := rc.Classify(q, l)
			if err != nil {
				t.Fatalf("serial classify %d: %v", i, err)
			}
			want[i] = serialAnswer{items: items, boundary: stats.Boundary, value: value}
		}
	}()

	srv, err := distknn.ServeTypedLocalOptions(distknn.VectorPoints(), k, seed,
		distknn.UniformVectorShards(seed, perNode, dim), distknn.NodeOptions{}, schedFrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rc, err := distknn.DialTypedCluster(distknn.VectorPoints(), srv.Addr())
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer rc.Close()
			for i := c; i < queries; i += clients {
				items, stats, err := rc.KNN(qs[i], l)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				value, _, err := rc.Classify(qs[i], l)
				if err != nil {
					t.Errorf("classify %d: %v", i, err)
					return
				}
				checkAnswer(t, i, items, stats.Boundary, value, want[i])
			}
		}(c)
	}
	wg.Wait()
}
