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
	"distknn/internal/obs"
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

// parkWindow fills a window of the given size with magic 4242 queries, each
// parked inside node 1's blockingHandler until release closes; the returned
// channel receives their outcomes. Each is sent only once the previous one
// is parked, so no two share a bucket: while they are parked, every new
// query queues at admission.
func parkWindow(client *Client, k, window int, entered <-chan struct{}) <-chan error {
	errs := make(chan error, window)
	for range window {
		go func() {
			_, err := client.Do(scalarQuery(wire.OpKNN, k, 4242))
			errs <- err
		}()
		<-entered
	}
	return errs
}

// waitCoalesced waits until n queries have entered a coalescing bucket. The
// counter moves under the same f.mu hold that adds the query's point, so
// every counted point is in its bucket before any bucket can be sealed by a
// freed slot.
func waitCoalesced(t *testing.T, lc *LocalCluster, n int64) {
	t.Helper()
	for start := time.Now(); lc.fe.fm.coalesced.Load() < n; time.Sleep(time.Millisecond) {
		if time.Since(start) > 20*time.Second {
			t.Fatalf("%d of %d queries reached a bucket", lc.fe.fm.coalesced.Load(), n)
		}
	}
}

// TestSchedulerCoalescesSingleQueries proves transparent server-side
// batching without a clock. On an idle frontend a lone single query runs at
// once, as a batch of one. Behind a window held full by parked queries,
// maxServerBatch concurrently arriving single queries pile into one bucket,
// which runs when the window frees and shares one wave: every reply reports
// the whole batch's contacts (every point sent to every seat), and each
// caller still gets exactly its own per-query result.
func TestSchedulerCoalescesSingleQueries(t *testing.T) {
	const k, window = 3, 2
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	lc := startEchoClusterOptions(t, k, FrontendOptions{Window: window, ServerBatch: true}, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
	client := dialNoRetry(t, lc.Addr())

	rep, err := client.Do(scalarQuery(wire.OpKNN, k, 7))
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, rep, k, 7)
	if rep.Messages != k {
		t.Fatalf("a lone query on an idle frontend reports %d messages, want %d: it waited for company", rep.Messages, k)
	}

	parked := parkWindow(client, k, window, entered)
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
	waitCoalesced(t, lc, 1+window+batch)
	close(release)
	wg.Wait()
	for range window {
		if err := <-parked; err != nil {
			t.Fatalf("parked query: %v", err)
		}
	}

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
	checkCoalescedFailureIsolated(t, 2)
}

// TestSchedulerIsolatesCoalescedFailureInOneSlot runs the solo fallback on
// a one-slot window: the fallback re-runs each participant inside the slot
// its bucket already holds, so it finishes instead of queueing behind
// itself.
func TestSchedulerIsolatesCoalescedFailureInOneSlot(t *testing.T) {
	checkCoalescedFailureIsolated(t, 1)
}

// checkCoalescedFailureIsolated piles one offender and enough innocents to
// fill a bucket behind a window held full, releases the window, and holds
// every participant to its own outcome.
func checkCoalescedFailureIsolated(t *testing.T, window int) {
	const k = 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	lc := startEchoClusterOptions(t, k, FrontendOptions{Window: window, ServerBatch: true}, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
	client := dialNoRetry(t, lc.Addr())
	parked := parkWindow(client, k, window, entered)

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
	waitCoalesced(t, lc, int64(window+len(vs)))
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("window %d: the coalesced batch and its solo fallback did not finish", window)
	}
	for range window {
		if err := <-parked; err != nil {
			t.Fatalf("parked query: %v", err)
		}
	}

	if outs[0].err == nil || !strings.Contains(outs[0].err.Error(), "unlucky") {
		t.Fatalf("offending query: got %v, want its own program error", outs[0].err)
	}
	for i, v := range vs[1:] {
		if err := outs[i+1].err; err != nil {
			t.Fatalf("innocent coalesced query %d failed with its neighbor: %v", v, err)
		}
		checkEcho(t, outs[i+1].rep, k, v)
		if outs[i+1].rep.Messages != k {
			t.Fatalf("innocent query %d reports %d messages, want its solo epoch's %d", v, outs[i+1].rep.Messages, k)
		}
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

// TestFrontendCloseFailsOpenBucket pins how a coalescing bucket parked
// behind a full window ends at Close: at once, through the same admission
// wake-up that fails every queued query. Every participant fails retryably
// and promptly, as TestFrontendCloseFailsInFlightQueries's in-flight query
// does, the bucket's outcome is the closing reply, and the bucket consumes
// no epoch ordinal — only the parked query holding the window did.
func TestFrontendCloseFailsOpenBucket(t *testing.T) {
	const k = 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	lc, err := ServeLocalOptions(k, FrontendOptions{Window: 1, ServerBatch: true}, nil, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
	if err != nil {
		t.Fatal(err)
	}
	client := dialNoRetry(t, lc.Addr())
	parked := parkWindow(client, k, 1, entered)
	errCh := make(chan error, k)
	for v := uint64(10); v < 10+k; v++ {
		go func() {
			_, err := client.Do(scalarQuery(wire.OpKNN, k, v))
			errCh <- err
		}()
	}
	// All k queries share the one bucket, queued behind the parked query.
	var b *bucket
	for start := time.Now(); b == nil; time.Sleep(time.Millisecond) {
		lc.fe.mu.Lock()
		if open := lc.fe.buckets[bucketKey{op: wire.OpKNN, l: k}]; open != nil && len(open.q.Points) == k {
			b = open
		}
		lc.fe.mu.Unlock()
		if b == nil && time.Since(start) > 20*time.Second {
			t.Fatal("the queries did not share one open bucket")
		}
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- lc.Close() }()
	retryable := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s across Close: expected an error", what)
		}
		if !errors.Is(err, ErrDegraded) && !strings.Contains(err.Error(), "read reply") && !strings.Contains(err.Error(), "send query") {
			t.Fatalf("%s across Close: got a non-retryable failure: %v", what, err)
		}
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case err := <-errCh:
			retryable("a coalesced query", err)
		case <-deadline:
			t.Fatal("a coalesced query hung across Close")
		}
	}
	select {
	case <-b.done:
	case <-deadline:
		t.Fatal("the open bucket did not end at Close")
	}
	if b.rep.Err != closingReply().Err || !b.rep.Degraded {
		t.Fatalf("open bucket across Close: %+v, want the closing reply", b.rep)
	}
	retryable("the parked query", <-parked)
	lc.fe.mu.Lock()
	epoch := lc.fe.epoch
	lc.fe.mu.Unlock()
	if epoch != 1 {
		t.Fatalf("epoch ordinal %d after Close, want 1: the open bucket consumed an ordinal", epoch)
	}
	// The parked epoch still runs on node 1; release it so the nodes drain.
	close(release)
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

// wedgedFrontend serves a k-seat frontend whose seats are raw connections
// that report ready and then never read their control connection again.
// Socket buffers sit well below one 2 MiB dispatch frame, on both ends: the
// first wave's write blocks on every seat. Kernel autotuning would otherwise
// let one seat absorb a wave its neighbour could not, and a seat no write
// ever blocked on is not yet detectably wedged.
func wedgedFrontend(t *testing.T, k int) *Frontend {
	t.Helper()
	fe, err := NewFrontendOptions("127.0.0.1:0", k, FrontendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	t.Cleanup(func() {
		fe.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("frontend: %v", err)
		}
	})
	for _, conn := range registerRaw(t, fe, k) {
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
		s.conn.Conn.(*net.TCPConn).SetWriteBuffer(64 << 10)
	}
	fe.mu.Unlock()
	return fe
}

// wedgingQuery is a MaxBatch query whose dispatch frame (about 2 MiB)
// overflows a wedged seat's socket buffers.
func wedgingQuery() wire.Query {
	p := wire.EncodeVectorPoint(make(points.Vector, 64))
	q := wire.Query{Op: wire.OpKNN, L: 1, Tag: wire.PointVector, Points: make([][]byte, wire.MaxBatch)}
	for i := range q.Points {
		q.Points[i] = p
	}
	return q
}

// TestDispatchToWedgedSeatFailsWithinDeadline pins the dispatch deadline:
// seats that report ready and then never read their control connection
// again fill their socket buffers, so a dispatch write blocks. Every query
// must still be answered degraded within dispatchTimeout (plus slack), and
// each seat must be retired with the failed dispatch as its cause. At k = 1
// the wave's caller writes the one frame itself; k = 2 adds one writing
// goroutine.
func TestDispatchToWedgedSeatFailsWithinDeadline(t *testing.T) {
	defer func(d time.Duration) { dispatchTimeout = d }(dispatchTimeout)
	dispatchTimeout = 300 * time.Millisecond
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			fe := wedgedFrontend(t, k)
			client := dialNoRetry(t, fe.Addr())
			q := wedgingQuery()
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

// TestFrontendLockFreeDuringWedgedDispatch pins that f.mu never covers a
// socket write: while a dispatch write to a wedged seat is blocked, /healthz
// and the eviction that unsticks the seat answer at once, and the eviction
// fails the blocked query degraded long before the write deadline.
func TestFrontendLockFreeDuringWedgedDispatch(t *testing.T) {
	defer func(d time.Duration) { dispatchTimeout = d }(dispatchTimeout)
	dispatchTimeout = 10 * time.Second
	fe := wedgedFrontend(t, 1)
	client := dialNoRetry(t, fe.Addr())
	queryErr := make(chan error, 1)
	go func() {
		_, err := client.Do(wedgingQuery())
		queryErr <- err
	}()
	for start := time.Now(); fe.fm.epochsAdmitted.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the query's wave was never admitted")
		}
	}
	time.Sleep(200 * time.Millisecond) // let the write fill the buffers and block

	within := func(what string, call func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			call()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(500 * time.Millisecond):
			t.Fatalf("%s blocked for over 500ms behind a wedged dispatch write", what)
		}
	}
	var h obs.Health
	within("Health", func() { h = fe.Health() })
	if !h.OK {
		t.Errorf("health before the eviction: %+v, want OK", h)
	}
	var err error
	within("EvictNode", func() { err = fe.EvictNode(0) })
	if err != nil {
		t.Fatalf("evict: %v", err)
	}
	select {
	case err = <-queryErr:
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("query on the evicted seat: got %v, want a degraded reply", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the query on the evicted seat did not fail within 2s")
	}
}

// TestWedgedSeatDeadlineIgnoresLaterWaves pins what the dispatch write
// deadline measures: time without progress on the seat. Waves that keep
// arriving at a wedged seat queue their writes behind the stuck one and must
// not extend its deadline, so the seat is retired one dispatchTimeout after
// the first wave, however long later waves keep coming.
func TestWedgedSeatDeadlineIgnoresLaterWaves(t *testing.T) {
	defer func(d time.Duration) { dispatchTimeout = d }(dispatchTimeout)
	dispatchTimeout = 500 * time.Millisecond
	fe := wedgedFrontend(t, 1)
	client := dialNoRetry(t, fe.Addr())
	const n = 6 // within the default window: no query waits for a slot
	errs := make(chan error, n)
	ask := func() {
		_, err := client.Do(wedgingQuery())
		errs <- err
	}
	go ask()
	for start := time.Now(); fe.fm.epochsAdmitted.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the first wave was never admitted")
		}
	}
	first := time.Now()
	// Later waves arrive for longer than the deadline; had each extended
	// the stuck write's deadline, the seat would outlive the last of them
	// by a whole dispatchTimeout.
	go func() {
		for i := 1; i < n; i++ {
			time.Sleep(150 * time.Millisecond)
			go ask()
		}
	}()
	for fe.Health().OK {
		if time.Since(first) > 5*time.Second {
			t.Fatal("the wedged seat was never retired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if took := time.Since(first); took > dispatchTimeout+300*time.Millisecond {
		t.Errorf("wedged seat retired %v after the first wave, want at most %v", took, dispatchTimeout+300*time.Millisecond)
	}
	for range n {
		if err := <-errs; !errors.Is(err, ErrDegraded) {
			t.Errorf("query on the wedged seat: got %v, want a degraded reply", err)
		}
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
