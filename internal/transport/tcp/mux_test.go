package tcp

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"distknn/internal/wire"
)

// TestMuxOutOfOrderReplies pins the demultiplexer against a frontend that
// completes queries in reverse arrival order: every concurrent Do must get
// the reply carrying its own tag, not the next frame off the stream. The
// stub reads all n tagged queries before answering, so all n calls are
// provably outstanding on the one connection at once.
func TestMuxOutOfOrderReplies(t *testing.T) {
	const n = 8
	addr := stubFrontend(t, func(conn net.Conn) {
		defer conn.Close()
		type pending struct{ tag, v uint64 }
		var pends []pending
		for i := 0; i < n; i++ {
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				t.Errorf("stub read %d: %v", i, err)
				return
			}
			r := wire.NewReader(payload)
			if kind := r.Kind(); kind != wire.KindQueryTagged {
				t.Errorf("stub read kind %d, want tagged query", kind)
				return
			}
			tag := r.Varint()
			q, err := wire.DecodeQuery(r)
			if err != nil {
				t.Errorf("stub decode %d: %v", i, err)
				return
			}
			v, err := wire.DecodeScalarPoint(q.Points[0])
			if err != nil {
				t.Errorf("stub point %d: %v", i, err)
				return
			}
			pends = append(pends, pending{tag, v})
		}
		// Answer newest-first; the query value rides back in Rounds so the
		// caller can verify it got its own result.
		for i := len(pends) - 1; i >= 0; i-- {
			_ = wire.WriteFrame(conn, replyFrame(pends[i].tag, wire.Reply{
				Rounds:  int(pends[i].v),
				Results: []wire.QueryReply{{}},
			}))
		}
	})
	client := dialNoRetry(t, addr)

	var wg sync.WaitGroup
	reps := make([]wire.Reply, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = client.Do(scalarQuery(wire.OpKNN, 1, uint64(i)+1))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if reps[i].Rounds != i+1 {
			t.Fatalf("query %d got reply %d — replies were matched by order, not tag", i, reps[i].Rounds)
		}
	}
}

// TestMuxChurnFailsOnlyInFlightTags drives the mux client through churn on
// the real serving stack: with several tagged queries parked inside
// dispatched epochs, another query on the same connection still completes
// (out-of-order, ahead of the parked ones); killing the node then fails
// exactly the parked tags — each with a retryable degraded error, never a
// poisoned connection — and after a re-join the same client produces
// bit-identical answers again.
func TestMuxChurnFailsOnlyInFlightTags(t *testing.T) {
	k := 3
	const parked = 3
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	c := startChurnCluster(t, k, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})
	client := dialNoRetry(t, c.fe.Addr())

	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 2)), k, 2)

	errCh := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func() {
			_, err := client.Do(scalarQuery(wire.OpKNN, k, 4242))
			errCh <- err
		}()
	}
	for i := 0; i < parked; i++ {
		<-entered
	}

	// A fourth tag on the same multiplexed connection completes while the
	// three parked epochs hold their window slots.
	rep, err := client.Do(scalarQuery(wire.OpKNN, k, 5))
	if err != nil {
		t.Fatalf("query alongside parked tags: %v", err)
	}
	checkEcho(t, rep, k, 5)

	c.session(1).kill()
	close(release)
	for i := 0; i < parked; i++ {
		if err := <-errCh; err == nil || !errors.Is(err, ErrDegraded) {
			t.Fatalf("parked tag %d across the kill: got %v, want a degraded error", i, err)
		}
	}

	// The connection was not poisoned: the next query fails fast with the
	// degraded error on the same stream, and heals without a reconnect.
	if _, err := client.Do(scalarQuery(wire.OpKNN, k, 6)); err == nil || !errors.Is(err, ErrDegraded) {
		t.Fatalf("query in the degraded window: got %v, want a degraded error", err)
	}
	c.startNode(&blockingHandler{entered: entered, release: release})
	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 7)), k, 7)
	for v := uint64(8); v <= 12; v++ {
		rep, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatalf("post-rejoin query %d: %v", v, err)
		}
		checkEcho(t, rep, k, v)
	}
}

// TestClientCloseWakesDegradedRetry is the regression test for the retry
// loop sleeping through its whole RetryWait budget after Close: against a
// permanently degraded frontend and a long budget, Close must wake the
// in-flight Do promptly with the closed-client error.
func TestClientCloseWakesDegradedRetry(t *testing.T) {
	addr := stubFrontend(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			tag, ok := readTaggedQuery(t, conn)
			if !ok {
				return
			}
			_ = wire.WriteFrame(conn, replyFrame(tag, wire.Reply{
				Err: "cluster degraded (1 of 2 nodes): waiting for node(s) [1]", Degraded: true,
			}))
		}
	})
	client, err := DialFrontendOptions(addr, ClientOptions{RetryWait: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Do(scalarQuery(wire.OpKNN, 1, 7))
		errCh <- err
	}()
	// Let the call observe its first degraded reply and enter the ride-out.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	client.Close()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("Do across Close: got %v, want the closed-client error", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("Close took %v to wake the degraded retry", elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Do slept through Close for the rest of its RetryWait budget")
	}
}
