package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"distknn/internal/keys"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// blockingHandler is an echoHandler whose node 1 parks inside the dispatch
// for the magic query 4242 until released — the window a churn test needs
// to kill the node mid-query.
type blockingHandler struct {
	echoHandler
	entered chan<- struct{}
	release <-chan struct{}
}

func (h *blockingHandler) Direct(q wire.Query, qi int, ceil keys.Key) ([]points.Item, error) {
	if v, _ := wire.DecodeScalarPoint(q.Points[qi]); v == 4242 && h.id == 1 {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.echoHandler.Direct(q, qi, ceil)
}

// churnCluster is a hand-rolled serving deployment whose node sessions are
// killable: frontend plus node goroutines started through the test hook.
type churnCluster struct {
	t  *testing.T
	fe *Frontend
	wg sync.WaitGroup

	mu       sync.Mutex
	sessions map[int]*nodeSession
	exitErrs []error
}

func startChurnCluster(t *testing.T, k int, newHandler func() Handler) *churnCluster {
	t.Helper()
	c := newChurnCluster(t, k)
	for i := 0; i < k; i++ {
		c.startNode(newHandler())
	}
	c.waitReady()
	return c
}

// newChurnCluster starts the frontend of a churn cluster with k free seats
// and no node.
func newChurnCluster(t *testing.T, k int) *churnCluster {
	t.Helper()
	fe, err := NewFrontendOptions("127.0.0.1:0", k, FrontendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	c := &churnCluster{t: t, fe: fe, sessions: make(map[int]*nodeSession)}
	t.Cleanup(func() {
		fe.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("frontend: %v", err)
		}
		c.wg.Wait()
	})
	return c
}

// waitReady waits until every seat has been sealed once.
func (c *churnCluster) waitReady() {
	c.t.Helper()
	<-c.fe.ready
	if c.fe.readyErr != nil {
		c.t.Fatal(c.fe.readyErr)
	}
}

// startNode launches one node session (a registration, granted the lowest
// free seat) and records its session handle by machine id.
func (c *churnCluster) startNode(h Handler) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		err := serveNode(c.fe.Addr(), h, func(s *nodeSession) {
			c.mu.Lock()
			c.sessions[s.id] = s
			c.mu.Unlock()
		}, nil)
		c.mu.Lock()
		c.exitErrs = append(c.exitErrs, err)
		c.mu.Unlock()
	}()
}

func (c *churnCluster) session(id int) *nodeSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[id]
}

// waitHealthy polls until a query succeeds again (the re-joined node is
// seated) and returns the successful reply.
func waitHealthy(t *testing.T, client *Client, q wire.Query) wire.Reply {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		rep, err := client.Do(q)
		if err == nil {
			return rep
		}
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("waiting for recovery: non-degraded failure: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not recover: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkEcho asserts the deterministic echoHandler answer for value v at
// ℓ = k on a k-node cluster — every seat's echo winner and the last one's
// key as the boundary — which a correctly re-seated cluster must keep
// producing bit-identically.
func checkEcho(t *testing.T, rep wire.Reply, k int, v uint64) {
	t.Helper()
	if len(rep.Results) != 1 {
		t.Fatalf("value %d: %d results", v, len(rep.Results))
	}
	res := rep.Results[0]
	if len(res.Items) != k {
		t.Fatalf("value %d: %d items, want %d", v, len(res.Items), k)
	}
	for id, it := range res.Items {
		want := keys.Key{Dist: v*10 + uint64(id), ID: uint64(id) + 1}
		if it.Key != want {
			t.Fatalf("value %d item %d = %v, want %v", v, id, it.Key, want)
		}
	}
	if res.Boundary != res.Items[k-1].Key {
		t.Fatalf("value %d: boundary %v, want the last item's key", v, res.Boundary)
	}
}

// TestChurnKillMidQueryDegradesThenHeals is the headline churn walk: a node
// dies inside a dispatch; the in-flight query fails with a
// retryable degraded error, later queries fail fast the same way, and a
// replacement registration re-seats the node and restores bit-identical
// service.
func TestChurnKillMidQueryDegradesThenHeals(t *testing.T) {
	k := 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	c := startChurnCluster(t, k, func() Handler {
		return &blockingHandler{entered: entered, release: release}
	})

	client, err := DialFrontendOptions(c.fe.Addr(), ClientOptions{RetryWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for v := uint64(1); v <= 5; v++ {
		rep, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatalf("pre-churn query %d: %v", v, err)
		}
		checkEcho(t, rep, k, v)
	}

	// Dispatch the magic query; node 1 parks inside the dispatch, and we
	// kill it there — its socket closed mid-flight, no goodbye, like a
	// crashed process.
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Do(scalarQuery(wire.OpKNN, k, 4242))
		errCh <- err
	}()
	<-entered
	c.session(1).kill()
	close(release)
	if err := <-errCh; err == nil || !errors.Is(err, ErrDegraded) {
		t.Fatalf("in-flight query across the kill: got %v, want a degraded error", err)
	}

	// Degraded window: queries fail fast with the retryable error, naming
	// the absent seat, and never with a permanent "cluster broken".
	for v := uint64(50); v < 53; v++ {
		_, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err == nil || !errors.Is(err, ErrDegraded) {
			t.Fatalf("degraded window query %d: got %v, want a degraded error", v, err)
		}
		if !strings.Contains(err.Error(), "cluster degraded (2 of 3 nodes)") {
			t.Fatalf("degraded window query %d: unhelpful error %v", v, err)
		}
	}

	// Heal: a plain late registration lands in the absent seat.
	c.startNode(&blockingHandler{entered: entered, release: release})
	waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 60))
	for v := uint64(61); v <= 70; v++ {
		rep, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatalf("post-rejoin query %d: %v", v, err)
		}
		checkEcho(t, rep, k, v)
	}

	// The killed session must have exited as a recoverable loss.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, err := range c.exitErrs {
		if err != nil && !errors.Is(err, ErrSessionLost) {
			t.Fatalf("killed node exited with %v, want ErrSessionLost", err)
		}
	}
}

// TestChurnEvictAndRejoin covers the operator path: a late registration to
// a full cluster is denied, EvictNode retires a healthy idle node (which
// observes ErrSessionLost), and a plain registration takes the seat back.
func TestChurnEvictAndRejoin(t *testing.T) {
	k := 2
	c := startChurnCluster(t, k, func() Handler { return &echoHandler{} })
	client, err := DialFrontendOptions(c.fe.Addr(), ClientOptions{RetryWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 3)), k, 3)

	// Every seat is held: a late registration has nothing to take.
	if err := ServeNodeObserved(c.fe.Addr(), nil, &echoHandler{}); err == nil || !strings.Contains(err.Error(), "cluster is full") {
		t.Fatalf("registration to a full cluster: got %v, want a \"cluster is full\" rejection", err)
	}
	evicted := c.session(1)
	if err := c.fe.EvictNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Do(scalarQuery(wire.OpKNN, k, 4)); err == nil || !errors.Is(err, ErrDegraded) {
		t.Fatalf("query after evict: got %v, want a degraded error", err)
	}
	c.startNode(&echoHandler{})
	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 5)), k, 5)
	if s := c.session(1); s == nil || s == evicted {
		t.Fatal("the registration did not take back seat 1")
	}
	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 5)), k, 5)
	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 6)), k, 6)
}

// TestFrontendClosesRetiredRejoinKind pins what became of the seat-claiming
// Rejoin request (kind 0a): like any first frame without a role it closes
// the connection without a reply, and the absent seat it names stays absent.
func TestFrontendClosesRetiredRejoinKind(t *testing.T) {
	c := startChurnCluster(t, 2, func() Handler { return &echoHandler{} })
	if err := c.fe.EvictNode(1); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The retired frame: kind 0a, seat 1 (sent as id+1), a mesh address.
	var w wire.Writer
	w.U8(0x0a)
	w.Varint(2)
	w.String("127.0.0.1:1")
	if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if payload, err := wire.ReadFrame(conn); err != io.EOF {
		t.Fatalf("retired kind 0a got payload % x, err %v; want the connection closed without a reply", payload, err)
	}
	if h := c.fe.Health(); h.OK || h.Seats[1].Present {
		t.Fatalf("retired kind 0a took the absent seat: %+v", h)
	}
}

// TestChurnIdleKillIsNoticedWithoutAQuery pins the control-pump behavior:
// a node dying between queries is marked absent by its pump, so the next
// query degrades (transient dispatch races included) rather than bricking
// the session.
func TestChurnIdleKillIsNoticedWithoutAQuery(t *testing.T) {
	k := 2
	c := startChurnCluster(t, k, func() Handler { return &echoHandler{} })
	client, err := DialFrontendOptions(c.fe.Addr(), ClientOptions{RetryWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Do(scalarQuery(wire.OpKNN, k, 2)); err != nil {
		t.Fatal(err)
	}
	c.session(1).kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := client.Do(scalarQuery(wire.OpKNN, k, 9))
		if err != nil {
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("query after idle kill: got %v, want a degraded error", err)
			}
			break
		}
		// The dispatch can race the pump's death notice once; it must not
		// keep winning.
		if time.Now().After(deadline) {
			t.Fatal("idle kill never degraded the cluster")
		}
	}
	// And it stays degraded, not broken.
	if _, err := client.Do(scalarQuery(wire.OpKNN, k, 10)); err == nil || !errors.Is(err, ErrDegraded) {
		t.Fatalf("second query after idle kill: got %v, want a degraded error", err)
	}
}

// checkStar asserts that the cluster is the star around the frontend:
// every seat is present and holds the control connection of the node
// session that took it last — the one link each node has.
func (c *churnCluster) checkStar(k int) {
	c.t.Helper()
	c.fe.mu.Lock()
	defer c.fe.mu.Unlock()
	for id := 0; id < k; id++ {
		seat, s := c.fe.slots[id], c.session(id)
		if !seat.present || seat.conn == nil {
			c.t.Errorf("seat %d is not held", id)
			continue
		}
		if got, want := seat.conn.RemoteAddr().String(), s.coord.LocalAddr().String(); got != want {
			c.t.Errorf("seat %d holds the link from %s, its node dialed from %s", id, got, want)
		}
	}
}

// waitDegraded polls until the cluster reports exactly present of its k
// seats held.
func waitDegraded(t *testing.T, client *Client, k, present int) {
	t.Helper()
	want := fmt.Sprintf("(%d of %d nodes)", present, k)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := client.Do(scalarQuery(wire.OpKNN, k, 3))
		if err != nil && strings.Contains(err.Error(), want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the cluster never degraded to %d of %d seats: %v", present, k, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChurnDoubleRejoinRestoresStar checks that every seat holds its node's
// control link after bring-up, after seat 1's node re-joins and after seat
// 0's re-joins, and then loses both together and re-joins them
// concurrently: two registrations racing for two free seats must each take
// one, and the cluster must answer bit-identically after.
func TestChurnDoubleRejoinRestoresStar(t *testing.T) {
	k := 3
	c := startChurnCluster(t, k, func() Handler { return &echoHandler{} })
	first, second := 0, 1
	client, err := DialFrontendOptions(c.fe.Addr(), ClientOptions{RetryWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 2)), k, 2)
	c.checkStar(k)

	for _, id := range []int{second, first} {
		c.session(id).kill()
		waitDegraded(t, client, k, k-1)
		c.startNode(&echoHandler{})
		checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 4)), k, 4)
		c.checkStar(k)
	}

	c.session(first).kill()
	c.session(second).kill()
	waitDegraded(t, client, k, k-2)
	c.startNode(&echoHandler{})
	c.startNode(&echoHandler{})
	checkEcho(t, waitHealthy(t, client, scalarQuery(wire.OpKNN, k, 7)), k, 7)
	for v := uint64(8); v <= 12; v++ {
		rep, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatalf("query %d after double re-join: %v", v, err)
		}
		checkEcho(t, rep, k, v)
	}
	c.checkStar(k)
}

// TestChurnCloseDuringRejoinReleasesHandshake pins that Close releases a
// join handshake in progress after the session is up: a registration
// granted the evicted seat that never reports ready has its connection
// closed by Close, not left to its handshake deadline.
func TestChurnCloseDuringRejoinReleasesHandshake(t *testing.T) {
	c := startChurnCluster(t, 2, func() Handler { return &echoHandler{} })
	if err := c.fe.EvictNode(1); err != nil {
		t.Fatal(err)
	}
	conn := registerRaw(t, c.fe, 1)[0]
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := wire.ReadFrame(conn)
	if err != nil || wire.Kind(payload[0]) != wire.KindAssign {
		t.Fatalf("re-join registration: got % x, %v; want an assign", payload, err)
	}
	c.fe.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(conn); err != io.EOF {
		t.Fatalf("handshake connection after Close: got %v, want it closed", err)
	}
}

// TestLocalClusterCloseIdempotent is the regression test for the seed bug
// where a second Close blocked forever on the drained serveErr channel.
func TestLocalClusterCloseIdempotent(t *testing.T) {
	lc, err := ServeLocalOptions(2, FrontendOptions{}, nil, func() Handler { return &echoHandler{} })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := lc.Close(); err != nil {
			t.Errorf("first close: %v", err)
		}
		if err := lc.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("double Close deadlocked")
	}
}

// stubFrontend is a minimal fake serving endpoint for client unit tests:
// each accepted connection is handled by the next script entry.
func stubFrontend(t *testing.T, scripts ...func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for _, script := range scripts {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go script(conn)
		}
	}()
	return ln.Addr().String()
}

// readQuery consumes one query frame off the stub's connection.
func readQuery(t *testing.T, conn net.Conn) bool {
	_, err := wire.ReadFrame(conn)
	return err == nil
}

// readTaggedQuery consumes one tagged query frame and returns the tag the
// stub must echo on its reply.
func readTaggedQuery(t *testing.T, conn net.Conn) (uint64, bool) {
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return 0, false
	}
	r := wire.NewReader(payload)
	if kind := r.Kind(); kind != wire.KindQueryTagged {
		t.Errorf("stub read kind %d, want tagged query", kind)
		return 0, false
	}
	return r.Varint(), true
}

// replyFrame is the tagged reply frame a stub frontend writes.
func replyFrame(tag uint64, rep wire.Reply) []byte {
	var w wire.Writer
	wire.AppendReplyTagged(&w, tag, rep)
	return w.Bytes()
}

func taggedOkReply(tag uint64) []byte {
	return replyFrame(tag, wire.Reply{Rounds: 1, Results: []wire.QueryReply{{}}})
}

// TestClientPoisonsDesyncedConnection is the regression test for the seed
// bug where a framing error left the connection mid-stream but reusable:
// the next Do misparsed garbage. Now the connection is poisoned and the
// next attempt runs on a fresh one.
func TestClientPoisonsDesyncedConnection(t *testing.T) {
	addr := stubFrontend(t,
		func(conn net.Conn) {
			defer conn.Close()
			if !readQuery(t, conn) {
				return
			}
			// A non-reply frame, with trailing garbage that a desynced
			// client would misparse as the next reply.
			var w wire.Writer
			w.Kind(wire.KindResult)
			w.Raw([]byte{0xde, 0xad, 0xbe, 0xef})
			_ = wire.WriteFrame(conn, w.Bytes())
			_ = wire.WriteFrame(conn, []byte{0xff, 0xff})
			time.Sleep(50 * time.Millisecond)
		},
		func(conn net.Conn) {
			defer conn.Close()
			tag, ok := readTaggedQuery(t, conn)
			if !ok {
				return
			}
			_ = wire.WriteFrame(conn, taggedOkReply(tag))
		},
	)
	client, err := DialFrontendOptions(addr, ClientOptions{RetryWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := scalarQuery(wire.OpKNN, 1, 7)
	if _, err := client.Do(q); err == nil || !strings.Contains(err.Error(), "expected reply") {
		t.Fatalf("first Do: got %v, want a framing error", err)
	}
	// The poisoned connection must not be reused: the second Do reconnects
	// and succeeds instead of reading the stub's garbage.
	rep, err := client.Do(q)
	if err != nil {
		t.Fatalf("second Do after poisoning: %v", err)
	}
	if rep.Rounds != 1 {
		t.Fatalf("second Do reply: %+v", rep)
	}
}

// TestClientRetriesTransportFailureTransparently checks the default mode:
// one Do call survives a connection that dies mid-exchange by reconnecting
// and retrying once.
func TestClientRetriesTransportFailureTransparently(t *testing.T) {
	addr := stubFrontend(t,
		func(conn net.Conn) {
			readQuery(t, conn)
			conn.Close() // die before replying
		},
		func(conn net.Conn) {
			defer conn.Close()
			tag, ok := readTaggedQuery(t, conn)
			if !ok {
				return
			}
			_ = wire.WriteFrame(conn, taggedOkReply(tag))
		},
	)
	client, err := DialFrontendOptions(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rep, err := client.Do(scalarQuery(wire.OpKNN, 1, 7))
	if err != nil {
		t.Fatalf("Do across a dropped connection: %v", err)
	}
	if rep.Rounds != 1 {
		t.Fatalf("reply: %+v", rep)
	}
}

// TestClientRetriesDegradedReply checks the churn retry: a degraded reply
// does not poison the connection, and a retry within the RetryWait budget
// rides out the outage on the same stream.
func TestClientRetriesDegradedReply(t *testing.T) {
	queries := make(chan struct{}, 4)
	addr := stubFrontend(t, func(conn net.Conn) {
		defer conn.Close()
		tag, ok := readTaggedQuery(t, conn)
		if !ok {
			return
		}
		queries <- struct{}{}
		_ = wire.WriteFrame(conn, replyFrame(tag, wire.Reply{
			Err: "cluster degraded (1 of 2 nodes): waiting for node(s) [1]", Degraded: true,
		}))
		tag, ok = readTaggedQuery(t, conn)
		if !ok {
			return
		}
		queries <- struct{}{}
		_ = wire.WriteFrame(conn, taggedOkReply(tag))
	})
	client, err := DialFrontendOptions(addr, ClientOptions{RetryWait: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rep, err := client.Do(scalarQuery(wire.OpKNN, 1, 7))
	if err != nil {
		t.Fatalf("Do across a degraded window: %v", err)
	}
	if rep.Rounds != 1 || len(queries) != 2 {
		t.Fatalf("reply %+v after %d queries, want 2 on one connection", rep, len(queries))
	}
}

// TestClientDeadline bounds a hung frontend with the per-call timeout.
func TestClientDeadline(t *testing.T) {
	addr := stubFrontend(t, func(conn net.Conn) {
		defer conn.Close()
		readQuery(t, conn)
		time.Sleep(5 * time.Second) // never reply
	}, func(conn net.Conn) {
		defer conn.Close()
		readQuery(t, conn)
		time.Sleep(5 * time.Second)
	})
	client, err := DialFrontendOptions(addr, ClientOptions{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	_, err = client.Do(scalarQuery(wire.OpKNN, 1, 7))
	var nerr net.Error
	if err == nil || !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Do against a hung frontend: got %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: %v", elapsed)
	}
}
