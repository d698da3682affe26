package tcp

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"distknn/internal/wire"
)

// startEchoClusterOptions is startEchoCluster with an explicit scheduler
// configuration and handler factory.
func startEchoClusterOptions(t *testing.T, k int, seed uint64, opts FrontendOptions, newHandler func() Handler) *LocalCluster {
	t.Helper()
	lc, err := ServeLocalOptions(k, seed, opts, nil, newHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lc.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return lc
}

func dialNoRetry(t *testing.T, addr string) *Client {
	t.Helper()
	client, err := DialFrontendOptions(addr, ClientOptions{NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestSchedulerPipelinesEpochs proves distinct client queries overlap on
// the mesh: while one epoch is parked inside a handler, a second client's
// query is admitted, runs its own epoch concurrently, and completes. Under
// the old serialized frontend the second query would queue forever behind
// the parked one.
func TestSchedulerPipelinesEpochs(t *testing.T) {
	k := 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	lc := startEchoClusterOptions(t, k, 71, FrontendOptions{Window: 4}, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
	leader := lc.Leader()

	blocked := dialNoRetry(t, lc.Addr())
	free := dialNoRetry(t, lc.Addr())

	errCh := make(chan error, 1)
	go func() {
		_, err := blocked.Do(scalarQuery(wire.OpKNN, k, 4242))
		errCh <- err
	}()
	<-entered

	// The parked epoch holds a window slot; these queries must still run.
	for v := uint64(2); v <= 6; v++ {
		rep, err := free.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatalf("query %d while an epoch is parked: %v", v, err)
		}
		checkEcho(t, rep, k, v, leader)
	}

	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("parked query: %v", err)
	}
}

// TestSchedulerCoalescesSingleQueries proves transparent server-side
// batching: with a long linger, maxServerBatch concurrently arriving single
// queries must share one lockstep epoch — every reply reports the whole
// epoch's message total (every sub-program's star round trip), and each
// caller still gets exactly its own per-query result.
func TestSchedulerCoalescesSingleQueries(t *testing.T) {
	k := 3
	lc := startEchoClusterOptions(t, k, 81, FrontendOptions{
		Window:      2,
		ServerBatch: true,
		Linger:      10 * time.Second, // only the full bucket may flush
	}, func() Handler { return &echoHandler{} })
	leader := lc.Leader()
	client, err := DialFrontendOptions(lc.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const batch = maxServerBatch
	var wg sync.WaitGroup
	reps := make([]wire.Reply, batch)
	errs := make([]error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = client.Do(scalarQuery(wire.OpKNN, k, uint64(i)+10))
		}(i)
	}
	wg.Wait()

	// Each sub-program is one star round trip: 2(k−1) messages per query,
	// and a coalesced epoch reports the shared total to every participant.
	wantMsgs := int64(batch * 2 * (k - 1))
	for i := 0; i < batch; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		checkEcho(t, reps[i], k, uint64(i)+10, leader)
		if reps[i].Messages != wantMsgs {
			t.Fatalf("client %d reports %d messages, want the shared epoch total %d — queries did not coalesce",
				i, reps[i].Messages, wantMsgs)
		}
	}
}

// TestSchedulerIsolatesCoalescedFailure pins server-side batching's fate
// isolation: a coalesced batch's participants are strangers, so when one
// client's query fails the shared epoch (the magic 1313 program error),
// the innocent co-batched queries must still succeed — the scheduler falls
// back to solo epochs — while the offender gets its own error.
func TestSchedulerIsolatesCoalescedFailure(t *testing.T) {
	k := 3
	lc := startEchoClusterOptions(t, k, 111, FrontendOptions{
		Window:      2,
		ServerBatch: true,
		Linger:      10 * time.Second, // only the full bucket may flush
	}, func() Handler { return &echoHandler{} })
	leader := lc.Leader()
	client, err := DialFrontendOptions(lc.Addr(), ClientOptions{NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// One offender and enough innocents to fill the bucket.
	vs := []uint64{1313}
	for v := uint64(10); len(vs) < maxServerBatch; v++ {
		vs = append(vs, v)
	}
	type outcome struct {
		rep wire.Reply
		err error
	}
	outs := make([]outcome, len(vs))
	var wg sync.WaitGroup
	for i, v := range vs {
		wg.Add(1)
		go func(i int, v uint64) {
			defer wg.Done()
			outs[i].rep, outs[i].err = client.Do(scalarQuery(wire.OpKNN, k, v))
		}(i, v)
	}
	wg.Wait()

	if outs[0].err == nil || !strings.Contains(outs[0].err.Error(), "unlucky") {
		t.Fatalf("offending query: got %v, want its own program error", outs[0].err)
	}
	for i, v := range vs[1:] {
		if err := outs[i+1].err; err != nil {
			t.Fatalf("innocent coalesced query %d failed with its neighbor: %v", v, err)
		}
		checkEcho(t, outs[i+1].rep, k, v, leader)
	}
}

// TestFrontendCloseFailsInFlightQueries is the shutdown regression test:
// Close while an epoch is parked inside a handler must fail the in-flight
// query promptly with a retryable error — not hang until the epoch drains,
// and not race the control pumps into a non-retryable failure.
func TestFrontendCloseFailsInFlightQueries(t *testing.T) {
	k := 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	lc, err := ServeLocalOptions(k, 91, FrontendOptions{Window: 4}, nil, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
	if err != nil {
		t.Fatal(err)
	}
	client := dialNoRetry(t, lc.Addr())

	errCh := make(chan error, 1)
	go func() {
		_, err := client.Do(scalarQuery(wire.OpKNN, k, 4242))
		errCh <- err
	}()
	<-entered

	closeDone := make(chan error, 1)
	go func() { closeDone <- lc.Close() }()

	// The in-flight query must fail promptly and retryably — either the
	// scheduler's explicit closing reply (degraded bit set) or, if Close
	// won the race to the client socket, a transport failure the client
	// would retry by reconnecting. Never a hang, never a misparse.
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("in-flight query across Close: expected an error")
		}
		if !errors.Is(err, ErrDegraded) && !strings.Contains(err.Error(), "read reply") && !strings.Contains(err.Error(), "send query") {
			t.Fatalf("in-flight query across Close: got a non-retryable failure: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("in-flight query hung across Close")
	}

	// The parked epoch is still running on the nodes; Close must wait for
	// it only after the client was answered. Release it and the shutdown
	// completes cleanly.
	close(release)
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Close hung on the draining epoch")
	}
	if err := lc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestEvictFailsOnlyInFlightEpochs pins the scheduler/churn interaction:
// evicting a node fails exactly the epochs in flight on it (retryably),
// while queries admitted after the heal run normally — and other queries
// pipelined alongside the doomed one were already answered from the same
// window.
func TestEvictFailsOnlyInFlightEpochs(t *testing.T) {
	k := 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	c := startChurnCluster(t, k, 101, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
	leader := c.fe.Leader()
	blocked := dialNoRetry(t, c.fe.Addr())
	free := dialNoRetry(t, c.fe.Addr())

	errCh := make(chan error, 1)
	go func() {
		_, err := blocked.Do(scalarQuery(wire.OpKNN, k, 4242))
		errCh <- err
	}()
	<-entered

	// A query sharing the window with the parked epoch completes first —
	// proof the eviction below dooms only what was in flight on the seat.
	rep, err := free.Do(scalarQuery(wire.OpKNN, k, 3))
	if err != nil {
		t.Fatalf("pipelined query before evict: %v", err)
	}
	checkEcho(t, rep, k, 3, leader)

	if err := c.fe.EvictNode(1); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil || !errors.Is(err, ErrDegraded) {
		t.Fatalf("in-flight query across evict: got %v, want a degraded error", err)
	}
	close(release)

	// Heal and verify the cluster answers bit-identically again.
	c.startNode(&blockingHandler{entered: entered, release: release})
	checkEcho(t, waitHealthy(t, free, scalarQuery(wire.OpKNN, k, 8)), k, 8, leader)
}

// TestFoldRejectsEmptyAnswer pins the fold's guard on node input: a point
// for which no seat reported a winner fails the query instead of indexing
// an empty answer.
func TestFoldRejectsEmptyAnswer(t *testing.T) {
	for _, op := range []uint8{wire.OpKNN, wire.OpClassify, wire.OpRegress} {
		if _, err := fold(scalarQuery(op, 3, 7), newGather(1, 2), 0); err == nil {
			t.Errorf("op %d: fold over no winners succeeded", op)
		}
	}
}
