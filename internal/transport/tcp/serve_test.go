package tcp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"distknn/internal/keys"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// echoHandler is a minimal serving protocol for transport tests: a shard of
// ten points that answers every query point v with one synthetic winner,
// key (10v + id, id + 1), so the frontend's merge path is exercised. A
// query for the magic value 1313 fails on node 1 only, exercising a failed
// dispatch.
type echoHandler struct {
	id int
}

func (h *echoHandler) Load(id, k int) (wire.Ready, error) {
	h.id = id
	return wire.Ready{ShardLen: 10, PointTag: wire.PointScalar}, nil
}

func (h *echoHandler) Direct(q wire.Query, qi int, _ keys.Key) ([]points.Item, error) {
	v, err := wire.DecodeScalarPoint(q.Points[qi])
	if err != nil {
		return nil, err
	}
	if v == 1313 && h.id == 1 {
		return nil, fmt.Errorf("unlucky query")
	}
	return []points.Item{{Key: keys.Key{Dist: v*10 + uint64(h.id), ID: uint64(h.id) + 1}}}, nil
}

func scalarQuery(op uint8, l int, vs ...uint64) wire.Query {
	pts := make([][]byte, len(vs))
	for i, v := range vs {
		pts[i] = wire.EncodeScalarPoint(v)
	}
	return wire.Query{Op: op, L: l, Tag: wire.PointScalar, Points: pts}
}

func startEchoCluster(t *testing.T, k int) (*LocalCluster, *Client) {
	t.Helper()
	lc, err := ServeLocalOptions(k, FrontendOptions{}, nil, func() Handler { return &echoHandler{} })
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialFrontendOptions(lc.Addr(), ClientOptions{})
	if err != nil {
		lc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		if err := lc.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return lc, client
}

func TestServeManyEpochsOverOneMesh(t *testing.T) {
	k := 3
	lc, client := startEchoCluster(t, k)
	if l := lc.fe.Leader(); l != 0 {
		t.Fatalf("Leader() of a ready session = %d, want 0", l)
	}
	for v := uint64(1); v <= 50; v++ {
		// ℓ = k keeps every node's echo winner in the merged answer.
		rep, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
		if len(rep.Results) != 1 {
			t.Fatalf("query %d: %d results, want 1", v, len(rep.Results))
		}
		res := rep.Results[0]
		if len(res.Items) != k {
			t.Fatalf("query %d: %d items, want %d", v, len(res.Items), k)
		}
		for id, it := range res.Items {
			want := keys.Key{Dist: v*10 + uint64(id), ID: uint64(id) + 1}
			if it.Key != want {
				t.Fatalf("query %d item %d = %v, want %v", v, id, it.Key, want)
			}
		}
		if res.Boundary != res.Items[k-1].Key {
			t.Fatalf("query %d: boundary %v", v, res.Boundary)
		}
		// One full-scatter wave: one round and one contact per seat.
		if rep.Rounds != 1 || rep.Messages != int64(k) {
			t.Fatalf("query %d: cost rounds=%d msgs=%d, want 1, %d", v, rep.Rounds, rep.Messages, k)
		}
	}
}

// TestServeBatchedEpoch drives a whole batch through one dispatch and
// checks per-query merge order and the single shared wave's cost.
func TestServeBatchedEpoch(t *testing.T) {
	k := 3
	_, client := startEchoCluster(t, k)
	vs := []uint64{4, 9, 2, 7}
	rep, err := client.Do(scalarQuery(wire.OpKNN, k, vs...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(vs) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(vs))
	}
	for qi, v := range vs {
		res := rep.Results[qi]
		if len(res.Items) != k {
			t.Fatalf("query %d: %d items, want %d", qi, len(res.Items), k)
		}
		for id, it := range res.Items {
			want := keys.Key{Dist: v*10 + uint64(id), ID: uint64(id) + 1}
			if it.Key != want {
				t.Fatalf("query %d item %d = %v, want %v", qi, id, it.Key, want)
			}
		}
		if res.Boundary != res.Items[k-1].Key {
			t.Fatalf("query %d: boundary %v", qi, res.Boundary)
		}
	}
	// The batch is one wave: every answer equals the same query asked alone,
	// the batch takes one round as each query alone does, and the contacts
	// add up.
	var messages int64
	for qi, v := range vs {
		single, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Results[qi], single.Results[0]) {
			t.Fatalf("query %d: batched answer %+v, asked alone %+v", qi, rep.Results[qi], single.Results[0])
		}
		if single.Rounds != 1 {
			t.Fatalf("query %d alone took %d rounds, want 1", qi, single.Rounds)
		}
		messages += single.Messages
	}
	if rep.Rounds != 1 || rep.Messages != messages {
		t.Fatalf("batch cost %d rounds / %d messages, want 1 / %d (its queries alone)", rep.Rounds, rep.Messages, messages)
	}
}

func TestServeEpochFailureKeepsSessionAlive(t *testing.T) {
	_, client := startEchoCluster(t, 3)
	ok := func(v uint64) wire.Reply {
		t.Helper()
		rep, err := client.Do(scalarQuery(wire.OpKNN, 1, v))
		if err != nil {
			t.Fatalf("query %d: %v", v, err)
		}
		return rep
	}
	ok(5)
	if _, err := client.Do(scalarQuery(wire.OpKNN, 1, 1313)); err == nil {
		t.Fatal("magic query should fail")
	} else if !strings.Contains(err.Error(), "unlucky") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A failing query inside a batch fails the whole batch (one wave).
	if _, err := client.Do(scalarQuery(wire.OpKNN, 1, 4, 1313, 6)); err == nil {
		t.Fatal("batch containing the magic query should fail")
	}
	// The session must survive failed waves.
	for v := uint64(20); v < 30; v++ {
		ok(v)
	}
}

// TestFrontendValidatesQueries sends one malformed query per check in the
// frontend's per-query validation. Each gets a plain (non-degraded) error
// naming what was wrong, consumes no epoch ordinal, and leaves the session
// answering. Point tag 3 is a retired encoding no handler serves.
func TestFrontendValidatesQueries(t *testing.T) {
	const k = 2
	reg := obs.NewRegistry()
	lc := startEchoClusterOptions(t, k, FrontendOptions{Metrics: reg}, func() Handler { return &echoHandler{} })
	client := dialNoRetry(t, lc.Addr())
	admitted := func() int64 { return reg.Snapshot().Counters["frontend_epochs_admitted_total"] }
	withTag := func(tag uint8) wire.Query {
		q := scalarQuery(wire.OpKNN, 1, 1)
		q.Tag = tag
		return q
	}
	cases := []struct {
		name string
		q    wire.Query
		want string
	}{
		{"bad op", scalarQuery(99, 1, 1), "unknown op 99"},
		{"vector tag", withTag(wire.PointVector), "cluster serves point tag 1, query uses 2"},
		{"retired tag", withTag(3), "cluster serves point tag 1, query uses 3"},
		{"l too small", scalarQuery(wire.OpKNN, 0, 1), "l=0 out of range"},
		{"l too large", scalarQuery(wire.OpKNN, 21, 1), "l=21 out of range"},
		{"empty batch", scalarQuery(wire.OpKNN, 1), "batch of 0 out of range"},
	}
	before := admitted()
	for _, tc := range cases {
		_, err := client.Do(tc.q)
		switch {
		case err == nil:
			t.Errorf("%s: expected error", tc.name)
		case errors.Is(err, ErrDegraded):
			t.Errorf("%s: rejected as degraded: %v", tc.name, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}
	if got := admitted(); got != before {
		t.Fatalf("rejected queries admitted %d epochs", got-before)
	}
	rep, err := client.Do(scalarQuery(wire.OpKNN, k, 4))
	if err != nil {
		t.Fatalf("valid query after rejections: %v", err)
	}
	if len(rep.Results) != 1 || len(rep.Results[0].Items) != k {
		t.Fatalf("valid query after rejections: %+v", rep)
	}
	for id, it := range rep.Results[0].Items {
		if want := (keys.Key{Dist: 4*10 + uint64(id), ID: uint64(id) + 1}); it.Key != want {
			t.Fatalf("item %d = %v, want %v", id, it.Key, want)
		}
	}
}

// mismatchedTagHandler makes every node report a different point tag, so
// the frontend must reject the session during the ready phase.
type mismatchedTagHandler struct{ echoHandler }

func (h *mismatchedTagHandler) Load(id, k int) (wire.Ready, error) {
	rdy, err := h.echoHandler.Load(id, k)
	rdy.PointTag += uint8(id)
	return rdy, err
}

func TestFailedSessionReleasesNodes(t *testing.T) {
	// A session that fails validation must close the node control
	// connections so every resident node exits — ServeLocalOptions' error-path
	// Close would otherwise deadlock waiting for them.
	done := make(chan struct{})
	go func() {
		defer close(done)
		lc, err := ServeLocalOptions(3, FrontendOptions{}, nil, func() Handler { return &mismatchedTagHandler{} })
		if err == nil {
			lc.Close()
			t.Error("mismatched point tags must fail the session")
		} else if !strings.Contains(err.Error(), "point tag") {
			t.Errorf("unexpected error: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("failed session left nodes (or ServeLocalOptions) hanging")
	}
}

// registerRaw opens n raw node connections to fe and registers each; the
// test plays the nodes from there. The connections close when the test ends.
func registerRaw(t *testing.T, fe *Frontend, n int) []net.Conn {
	t.Helper()
	var conns []net.Conn
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", fe.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := wire.WriteFrame(conn, []byte{byte(wire.KindRegister)}); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	return conns
}

// TestFrontendCloseDuringSetupReleasesServe is the regression test for a
// Close that lands after rendezvous but before the nodes report ready:
// Close must close the registered connections, and Serve must return
// instead of waiting forever for ready reports (and must not seat anyone).
func TestFrontendCloseDuringSetupReleasesServe(t *testing.T) {
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, FrontendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	conns := registerRaw(t, fe, 2)
	// Both grants out: Serve now waits for ready reports that never come.
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, err := wire.ReadFrame(conn)
		if err != nil || wire.Kind(payload[0]) != wire.KindAssign {
			t.Fatalf("registration %d: got % x, %v; want an assign", i, payload, err)
		}
	}
	fe.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve after Close during setup: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close during setup did not release Serve")
	}
	for i, conn := range conns {
		if _, err := wire.ReadFrame(conn); err == nil {
			t.Fatalf("registration %d: connection still open after Close", i)
		}
	}
	fe.mu.Lock()
	seated := false
	for _, s := range fe.slots {
		seated = seated || s.present
	}
	fe.mu.Unlock()
	if seated {
		t.Fatal("a closed frontend seated its nodes")
	}
}

// TestFailedSessionOnStalledBringUpJoin pins the handshake deadline at
// bring-up: nodes that register and never report ready fail the session
// within handshakeTimeout, releasing their connections, instead of
// stalling Serve until Close.
func TestFailedSessionOnStalledBringUpJoin(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 200 * time.Millisecond
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, FrontendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	conns := registerRaw(t, fe, 2)
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, err := wire.ReadFrame(conn)
		if err != nil || wire.Kind(payload[0]) != wire.KindAssign {
			t.Fatalf("registration %d: got % x, %v; want an assign", i, payload, err)
		}
	}
	select {
	case err := <-serveDone:
		if err == nil || !strings.Contains(err.Error(), "read ready from node") {
			t.Fatalf("Serve with stalled joins: got %v, want a ready read's failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled joins did not fail the session")
	}
	for i, conn := range conns {
		if _, err := wire.ReadFrame(conn); err != io.EOF {
			t.Fatalf("stalled join %d's connection: got %v, want it closed", i, err)
		}
	}
	if l := fe.Leader(); l != -1 {
		t.Fatalf("leader of a failed session = %d, want -1", l)
	}
}

// TestFrontendDropsSilentConnection and TestFrontendDropsHalfSentFirstFrame
// pin the first frame's deadline. A connection's first frame decides its
// role, and one that never completes it — it sends nothing, or a frame
// header and no payload — is dropped once handshakeTimeout passes, with the
// session unharmed; and Close drops one still waiting for it.
func TestFrontendDropsSilentConnection(t *testing.T) { checkFirstFrameDue(t, nil) }

func TestFrontendDropsHalfSentFirstFrame(t *testing.T) {
	checkFirstFrameDue(t, []byte{16, 0, 0, 0}) // a 16-byte frame's header
}

func checkFirstFrameDue(t *testing.T, first []byte) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	dial := func(addr string) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(first); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	dropped := func(conn net.Conn, what string) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := conn.Read(make([]byte, 1))
		if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
			t.Fatalf("%s: read %v, want the connection closed", what, err)
		}
	}

	// The deadline drops the connection, and the session serves on.
	handshakeTimeout = 300 * time.Millisecond
	const k = 2
	lc, err := ServeLocalOptions(k, FrontendOptions{}, nil, func() Handler { return &echoHandler{} })
	if err != nil {
		t.Fatal(err)
	}
	dropped(dial(lc.Addr()), "past handshakeTimeout")
	client := dialNoRetry(t, lc.Addr())
	rep, err := client.Do(scalarQuery(wire.OpKNN, k, 7))
	if err != nil {
		t.Fatalf("query after the drop: %v", err)
	}
	checkEcho(t, rep, k, 7)
	client.Close()
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}

	// Under a deadline far beyond the wait, only Close can drop it.
	handshakeTimeout = time.Minute
	fe, err := NewFrontendOptions("127.0.0.1:0", 1, FrontendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	conn := dial(fe.Addr())
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		fe.mu.Lock()
		accepted := len(fe.conns) == 1
		fe.mu.Unlock()
		if accepted {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("the frontend never accepted the connection")
		}
	}
	fe.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	dropped(conn, "across Close")
}

// TestFrontendRejectsOverflowingShardCount pins the ready drain's sum check:
// two seats of 2⁶³−1 points each would wrap the global point count negative,
// and with it the range every query's ℓ is checked against. The session
// must fail instead.
func TestFrontendRejectsOverflowingShardCount(t *testing.T) {
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, FrontendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	for _, conn := range registerRaw(t, fe, 2) {
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
		wire.AppendReady(&ready, wire.Ready{ShardLen: math.MaxInt64, PointTag: wire.PointScalar})
		if err := wire.WriteFrame(conn, ready.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-serveDone:
		if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("Serve with an overflowing point count: got %v, want an overflow error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve neither failed nor returned")
	}
}

// TestRetiredSummaryKindIsRefused pins what became of the Summary frame
// (kind 0e), whose body is now the tail of Ready: a join is exactly
// Register, Assign and Ready. A node that reports in the retired layout —
// Ready led by its node id, then a Summary frame — fails its handshake; a
// kind-0e frame from a seated node retires the seat like any unexpected
// control kind; and as a connection's first frame it closes the connection
// without a reply, like any frame without a role.
func TestRetiredSummaryKindIsRefused(t *testing.T) {
	start := func(ready []byte) (*Frontend, net.Conn, chan error) {
		fe, err := NewFrontendOptions("127.0.0.1:0", 1, FrontendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fe.Close() })
		serveDone := make(chan error, 1)
		go func() { serveDone <- fe.Serve() }()
		conn := registerRaw(t, fe, 1)[0]
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, ready); err != nil {
			t.Fatal(err)
		}
		return fe, conn, serveDone
	}
	summary := []byte{0x0e, 0x00, 0x00} // node 0, no centroid

	// Node 0, 5 points, scalar tag: read today, a shard of 0 points whose
	// summary is cut off.
	_, conn, serveDone := start([]byte{byte(wire.KindReady), 0x00, 0x05, wire.PointScalar})
	_ = wire.WriteFrame(conn, summary) // the frontend may have closed the connection already
	select {
	case err := <-serveDone:
		if err == nil || !strings.Contains(err.Error(), "bad ready") {
			t.Fatalf("a ready frame in the retired layout: Serve returned %v, want a bad-ready failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a ready frame in the retired layout sealed the seat")
	}

	var ready wire.Writer
	wire.AppendReady(&ready, wire.Ready{ShardLen: 5, PointTag: wire.PointScalar})
	fe, conn, _ := start(ready.Bytes())
	<-fe.ready
	if err := wire.WriteFrame(conn, summary); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h := fe.Health(); h.Seats[0].Present || !strings.Contains(h.Seats[0].Cause, "unexpected control kind 14"); h = fe.Health() {
		if time.Now().After(deadline) {
			t.Fatalf("a kind-0e frame from a seated node left the seat %+v", h.Seats[0])
		}
		time.Sleep(time.Millisecond)
	}

	first, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := wire.WriteFrame(first, summary); err != nil {
		t.Fatal(err)
	}
	first.SetReadDeadline(time.Now().Add(10 * time.Second))
	if payload, err := wire.ReadFrame(first); err != io.EOF {
		t.Fatalf("a first frame of kind 0e got payload % x, err %v; want the connection closed without a reply", payload, err)
	}
}

// TestJoinRejectsAssignBeyondPayload pins the join's bounds check: an
// Assign whose cluster size k does not fit an int32 — or whose seat lies
// outside its cluster — fails the join with an error instead of seating
// the node in a cluster nothing can allocate for.
func TestJoinRejectsAssignBeyondPayload(t *testing.T) {
	for _, a := range []struct{ id, k uint64 }{{0, 1 << 40}, {3, 3}} {
		addr := stubFrontend(t, func(conn net.Conn) {
			defer conn.Close()
			if _, err := wire.ReadFrame(conn); err != nil {
				return
			}
			var w wire.Writer
			w.Kind(wire.KindAssign)
			w.Varint(a.id)
			w.Varint(a.k)
			_ = wire.WriteFrame(conn, w.Bytes())
		})
		err := ServeNodeObserved(addr, nil, &echoHandler{})
		if err == nil || !strings.Contains(err.Error(), "does not fit") {
			t.Fatalf("join against an assign of seat %d of %d: got %v, want a bounds error", a.id, a.k, err)
		}
	}
}

// maxLintAllows is the number of audited //knnlint:allow directives in this
// package's non-test files. ROADMAP: the count should fall, not hold — lower
// it in the commit that removes one; raising it needs the same argument in
// review that the directive itself does.
const maxLintAllows = 11

// TestLintAllowBudget keeps the package's //knnlint:allow directives at the
// audited count: it fails when one is added, and when one goes without the
// budget following it down.
func TestLintAllowBudget(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		n += strings.Count(string(src), "//knnlint:allow ")
	}
	if n > maxLintAllows {
		t.Errorf("%d //knnlint:allow directives in internal/transport/tcp, budget is %d", n, maxLintAllows)
	}
	if n < maxLintAllows {
		t.Errorf("%d //knnlint:allow directives left — lower maxLintAllows from %d to lock the gain in", n, maxLintAllows)
	}
}
