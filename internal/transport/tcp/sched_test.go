package tcp

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"distknn/internal/keys"
	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// startEchoClusterOptions is startEchoCluster with an explicit scheduler
// configuration and handler factory.
func startEchoClusterOptions(t *testing.T, k int, opts FrontendOptions, newHandler func() Handler) *LocalCluster {
	t.Helper()
	lc, err := ServeLocalOptions(k, opts, nil, newHandler)
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
	client, err := DialFrontendOptions(addr, ClientOptions{RetryWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestSchedulerPipelinesEpochs proves distinct client queries overlap on
// the cluster: while one query is parked inside a handler, a second client's
// query is admitted, runs its own wave concurrently, and completes. Under
// the old serialized frontend the second query would queue forever behind
// the parked one.
func TestSchedulerPipelinesEpochs(t *testing.T) {
	k := 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	lc := startEchoClusterOptions(t, k, FrontendOptions{Window: 4}, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})

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
		checkEcho(t, rep, k, v)
	}

	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("parked query: %v", err)
	}
}

// TestSchedulerCoalescesSingleQueries proves transparent server-side
// batching: with a long linger, maxServerBatch concurrently arriving single
// queries must share one wave — every reply reports the whole batch's
// contacts (every point sent to every seat), and each caller still gets
// exactly its own per-query result.
func TestSchedulerCoalescesSingleQueries(t *testing.T) {
	k := 3
	lc := startEchoClusterOptions(t, k, FrontendOptions{
		Window:      2,
		ServerBatch: true,
		Linger:      10 * time.Second, // only the full bucket may flush
	}, func() Handler { return &echoHandler{} })
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

	// Each point is sent to every seat, and a coalesced batch reports the
	// shared total to every participant.
	wantMsgs := int64(batch * k)
	for i := 0; i < batch; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		checkEcho(t, reps[i], k, uint64(i)+10)
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
	lc := startEchoClusterOptions(t, k, FrontendOptions{
		Window:      2,
		ServerBatch: true,
		Linger:      10 * time.Second, // only the full bucket may flush
	}, func() Handler { return &echoHandler{} })
	client, err := DialFrontendOptions(lc.Addr(), ClientOptions{RetryWait: -1})
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
		checkEcho(t, outs[i+1].rep, k, v)
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
	lc, err := ServeLocalOptions(k, FrontendOptions{Window: 4}, nil, func() Handler {
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

// TestFrontendCloseFailsOpenBucket pins how a coalescing bucket still open at
// Close ends: through its own flush, whose execute sees the frontend closed.
// Every participant fails retryably within Linger (plus slack) of the Close,
// as TestFrontendCloseFailsInFlightQueries's in-flight query does, the
// bucket's outcome is the closing reply, and no epoch ordinal is consumed.
func TestFrontendCloseFailsOpenBucket(t *testing.T) {
	const k, linger = 3, 200 * time.Millisecond
	lc, err := ServeLocalOptions(k, FrontendOptions{ServerBatch: true, Linger: linger}, nil, func() Handler {
		return &echoHandler{}
	})
	if err != nil {
		t.Fatal(err)
	}
	client := dialNoRetry(t, lc.Addr())
	errCh := make(chan error, k)
	for v := uint64(10); v < 10+k; v++ {
		go func() {
			_, err := client.Do(scalarQuery(wire.OpKNN, k, v))
			errCh <- err
		}()
	}
	// Park all k queries in the one bucket, well inside its linger.
	var b *bucket
	for start := time.Now(); b == nil; time.Sleep(time.Millisecond) {
		lc.fe.mu.Lock()
		if open := lc.fe.sched.buckets[bucketKey{op: wire.OpKNN, l: k}]; open != nil && len(open.q.Points) == k {
			b = open
		}
		lc.fe.mu.Unlock()
		if b == nil && time.Since(start) > linger/2 {
			t.Fatal("the queries did not share one open bucket")
		}
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- lc.Close() }()
	deadline := time.After(linger + time.Second)
	for i := 0; i < k; i++ {
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("a coalesced query across Close: expected an error")
			}
			if !errors.Is(err, ErrDegraded) && !strings.Contains(err.Error(), "read reply") && !strings.Contains(err.Error(), "send query") {
				t.Fatalf("a coalesced query across Close: got a non-retryable failure: %v", err)
			}
		case <-deadline:
			t.Fatal("a coalesced query hung across Close")
		}
	}
	select {
	case <-b.done:
	case <-deadline:
		t.Fatal("the open bucket did not end within its linger")
	}
	if b.rep.Err != closingReply().Err || !b.rep.Degraded {
		t.Fatalf("open bucket across Close: %+v, want the closing reply", b.rep)
	}
	lc.fe.mu.Lock()
	epoch := lc.fe.epoch
	lc.fe.mu.Unlock()
	if epoch != 0 {
		t.Fatalf("an open bucket across Close consumed epoch ordinal %d", epoch)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("close: %v", err)
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
	c := startChurnCluster(t, k, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
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
	checkEcho(t, rep, k, 3)

	if err := c.fe.EvictNode(1); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil || !errors.Is(err, ErrDegraded) {
		t.Fatalf("in-flight query across evict: got %v, want a degraded error", err)
	}
	close(release)

	// Heal and verify the cluster answers bit-identically again.
	c.startNode(&blockingHandler{entered: entered, release: release})
	checkEcho(t, waitHealthy(t, free, scalarQuery(wire.OpKNN, k, 8)), k, 8)
}

// TestDispatchToWedgedSeatFailsWithinDeadline pins the dispatch deadline:
// seats that report ready and then never read their control connection
// again fill their socket buffers, so a dispatch write blocks with f.mu
// held. Every query must still be answered degraded within dispatchTimeout
// (plus slack), and each seat must be retired with the failed dispatch as
// its cause. k = 1 covers the inline write, k = 2 the goroutine fan-out.
func TestDispatchToWedgedSeatFailsWithinDeadline(t *testing.T) {
	defer func(d time.Duration) { dispatchTimeout = d }(dispatchTimeout)
	dispatchTimeout = 300 * time.Millisecond
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			fe, err := NewFrontendOptions("127.0.0.1:0", k, FrontendOptions{})
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- fe.Serve() }()
			defer func() {
				fe.Close()
				if err := <-serveDone; err != nil {
					t.Errorf("frontend: %v", err)
				}
			}()
			for _, conn := range registerRaw(t, fe, k) {
				// Socket buffers well below one 2 MiB dispatch frame, on both
				// ends (the frontend's below): the first wave's write blocks
				// on every seat. Kernel autotuning would otherwise let one
				// seat absorb a wave its neighbour could not, and a seat no
				// write ever blocked on is not yet detectably wedged.
				conn.(*net.TCPConn).SetReadBuffer(64 << 10)
				payload, err := wire.ReadFrame(conn)
				if err != nil {
					t.Fatal(err)
				}
				r := wire.NewReader(payload)
				if kind := r.Kind(); kind != wire.KindAssign {
					t.Fatalf("got kind %d, want an assign", kind)
				}
				if _, err := wire.DecodeAssign(r); err != nil {
					t.Fatal(err)
				}
				var ready wire.Writer
				wire.AppendReady(&ready, wire.Ready{ShardLen: 100, PointTag: wire.PointVector})
				if err := wire.WriteFrame(conn, ready.Bytes()); err != nil {
					t.Fatal(err)
				}
				// From here on the seat never reads again.
			}
			<-fe.ready
			fe.mu.Lock()
			for _, s := range fe.slots {
				s.conn.(*net.TCPConn).SetWriteBuffer(64 << 10)
			}
			fe.mu.Unlock()
			client := dialNoRetry(t, fe.Addr())
			p := wire.EncodeVectorPoint(make(points.Vector, 64))
			q := wire.Query{Op: wire.OpKNN, L: 1, Tag: wire.PointVector, Points: make([][]byte, wire.MaxBatch)}
			for i := range q.Points {
				q.Points[i] = p
			}
			const n = 16
			errs := make([]error, n)
			var wg sync.WaitGroup
			start := time.Now()
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = client.Do(q)
				}(i)
			}
			wg.Wait()
			if took := time.Since(start); took > dispatchTimeout+time.Second {
				t.Errorf("%d queries to wedged seats took %v, want at most %v", n, took, dispatchTimeout+time.Second)
			}
			for i, err := range errs {
				if !errors.Is(err, ErrDegraded) {
					t.Errorf("query %d: got %v, want a degraded reply", i, err)
				}
			}
			h := fe.Health()
			for _, sh := range h.Seats {
				if sh.Present || !strings.Contains(sh.Cause, fmt.Sprintf("dispatch to node %d", sh.ID)) {
					t.Errorf("seat %d: present %v, cause %q; want it retired by its failed dispatch", sh.ID, sh.Present, sh.Cause)
				}
			}
			if len(h.Seats) != k {
				t.Errorf("health lists %d seats, want %d", len(h.Seats), k)
			}
		})
	}
}

// TestFoldRejectsEmptyAnswer pins the fold's guard on node input: a point
// for which no seat reported a winner fails the query instead of indexing
// an empty answer.
func TestFoldRejectsEmptyAnswer(t *testing.T) {
	for _, op := range []uint8{wire.OpKNN, wire.OpClassify, wire.OpRegress} {
		if _, err := fold(scalarQuery(op, 3, 7), newGather(1, 2)); err == nil {
			t.Errorf("op %d: fold over no winners succeeded", op)
		}
	}
}

// TestMergeTopMatchesSort pins the fold's k-way merge against a sort-based
// reference: sorting the union of every seat's list and cutting it to ℓ
// gives the same top-ℓ, and each seat's share is its items at or below the
// ℓ-th key. The lists are random local top-ℓ lists over unique keys with
// colliding distances — some seats empty, some totals below ℓ, and on a
// gather trial every list but the probe seat's cut strictly below the probe
// seat's ℓ-th key, as wave 2 returns them.
func TestMergeTopMatchesSort(t *testing.T) {
	rng := xrand.New(42)
	for trial := range 2000 {
		k, l := 1+rng.IntN(6), 1+rng.IntN(12)
		// Point IDs are unique and uncorrelated with the seat order, so a
		// merge that broke distance ties by seat would show.
		ids := rng.Perm(k * 2 * l)
		lists := make([][]points.Item, k)
		for id := range lists {
			if rng.IntN(4) == 0 {
				continue // an empty seat
			}
			for range rng.IntN(2 * l) {
				lists[id] = append(lists[id], points.Item{Key: keys.Key{Dist: rng.Uint64N(8), ID: uint64(ids[0])}, Label: float64(rng.IntN(3))})
				ids = ids[1:]
			}
			points.SortItems(lists[id])
			if len(lists[id]) > l {
				lists[id] = lists[id][:l]
			}
		}
		if probe := rng.IntN(k); trial%2 == 1 && len(lists[probe]) == l {
			bound := lists[probe][l-1].Key
			for id := range lists {
				if id == probe {
					continue
				}
				cut := 0
				for cut < len(lists[id]) && lists[id][cut].Key.Less(bound) {
					cut++
				}
				lists[id] = lists[id][:cut]
			}
		}

		var all []points.Item
		for _, items := range lists {
			all = append(all, items...)
		}
		points.SortItems(all)
		if len(all) > l {
			all = all[:l]
		}
		top, shares := mergeTop(lists, l)
		if !equalItems(top, all) {
			t.Fatalf("trial %d: merged %v, sorted %v", trial, top, all)
		}
		for id, items := range lists {
			var want []points.Item
			for _, it := range items {
				if len(all) > 0 && !all[len(all)-1].Key.Less(it.Key) {
					want = append(want, it)
				}
			}
			if !equalItems(shares[id], want) {
				t.Fatalf("trial %d: seat %d share %v, want %v", trial, id, shares[id], want)
			}
		}
	}
}

func equalItems(a, b []points.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
