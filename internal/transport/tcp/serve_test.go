package tcp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// echoHandler is a minimal serving protocol for transport tests: each query
// is a star round trip around the leader Load was handed — every worker
// sends the leader one message, the leader answers with one broadcast —
// plus v mod 3 idle rounds (so the lanes of a batch need different round
// counts), and returns one synthetic "winner" per node, so the frontend's
// per-query merge path is exercised; the leader reports v as its survivor
// count, an outcome the frontend takes from the leader alone. A query for
// the magic value 1313 fails on the worker after the leader before it sends
// anything, exercising epoch-failure recovery: the other workers only learn
// of the failure through the leader's abort.
type echoHandler struct {
	leader int
}

func (h *echoHandler) Load(id, k, leader int) (SessionInfo, error) {
	h.leader = leader
	return SessionInfo{ShardLen: 10, PointTag: wire.PointScalar}, nil
}

func (h *echoHandler) Query(m kmachine.Env, q wire.Query, qi int) (QueryResult, error) {
	v, err := wire.DecodeScalarPoint(q.Points[qi])
	if err != nil {
		return QueryResult{}, err
	}
	if v == 1313 && m.ID() == (h.leader+1)%m.K() {
		return QueryResult{}, fmt.Errorf("unlucky query")
	}
	// One star round trip, so every query exercises the mesh: two rounds.
	if m.ID() == h.leader {
		if got := len(m.Gather(m.K() - 1)); got != m.K()-1 {
			return QueryResult{}, fmt.Errorf("leader gathered %d of %d", got, m.K()-1)
		}
		m.Broadcast([]byte{byte(m.ID())})
	} else {
		m.Send(h.leader, []byte{byte(m.ID())})
		m.EndRound()
		if got := len(m.Gather(1)); got != 1 {
			return QueryResult{}, fmt.Errorf("worker gathered %d replies", got)
		}
	}
	for r := uint64(0); r < v%3; r++ {
		m.EndRound()
	}
	out := QueryResult{
		Winners: []points.Item{{Key: keys.Key{Dist: v*10 + uint64(m.ID()), ID: uint64(m.ID()) + 1}}},
	}
	if m.ID() == h.leader {
		out.Survivors = int64(v)
	}
	return out, nil
}

// Direct satisfies the Handler interface; the echo handlers never report a
// metric summary, so no frontend in these tests direct-dispatches to them.
func (h *echoHandler) Direct(q wire.Query, qi int, _ keys.Key) (QueryResult, error) {
	v, err := wire.DecodeScalarPoint(q.Points[qi])
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{
		Winners: []points.Item{{Key: keys.Key{Dist: v * 10, ID: 1}}},
	}, nil
}

func scalarQuery(op uint8, l int, vs ...uint64) wire.Query {
	pts := make([][]byte, len(vs))
	for i, v := range vs {
		pts[i] = wire.EncodeScalarPoint(v)
	}
	return wire.Query{Op: op, L: l, Tag: wire.PointScalar, Points: pts}
}

func startEchoCluster(t *testing.T, k int, seed uint64) (*LocalCluster, *Client) {
	t.Helper()
	lc, err := ServeLocalOptions(k, seed, FrontendOptions{}, nil, func() Handler { return &echoHandler{} })
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
	lc, client := startEchoCluster(t, k, 7)
	if l := lc.Leader(); l < 0 || l >= k {
		t.Fatalf("leader = %d", l)
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
		if res.Boundary != res.Items[k-1].Key || res.Survivors != int64(v) || rep.Leader != lc.Leader() {
			t.Fatalf("query %d: outcome %+v leader %d", v, res.QueryOutcome, rep.Leader)
		}
		// A star round trip: k−1 worker messages, k−1 leader replies.
		if rep.Rounds != 2+int(v%3) || rep.Messages != int64(2*(k-1)) {
			t.Fatalf("query %d: cost rounds=%d msgs=%d, want %d and %d", v, rep.Rounds, rep.Messages, 2+v%3, 2*(k-1))
		}
	}
}

// TestServeBatchedEpoch drives a whole batch through one dispatch and
// checks per-query merge order and the single shared epoch cost.
func TestServeBatchedEpoch(t *testing.T) {
	k := 3
	lc, client := startEchoCluster(t, k, 11)
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
		if res.Boundary != res.Items[k-1].Key || res.Survivors != int64(v) {
			t.Fatalf("query %d: outcome %+v", qi, res.QueryOutcome)
		}
	}
	if rep.Leader != lc.Leader() {
		t.Fatalf("leader %d, want %d", rep.Leader, lc.Leader())
	}
	// The batch is one epoch of len(vs) lanes: every answer equals the same
	// query asked alone in a one-lane epoch, the lanes share the physical
	// rounds (the epoch takes as many as its slowest lane, not their sum),
	// and messages and bytes add up.
	var rounds int
	var messages, bytes int64
	for qi, v := range vs {
		single, err := client.Do(scalarQuery(wire.OpKNN, k, v))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Results[qi], single.Results[0]) {
			t.Fatalf("query %d: batched answer %+v, asked alone %+v", qi, rep.Results[qi], single.Results[0])
		}
		if want := 2 + int(v%3); single.Rounds != want {
			t.Fatalf("query %d alone took %d rounds, want %d", qi, single.Rounds, want)
		}
		rounds = max(rounds, single.Rounds)
		messages += single.Messages
		bytes += single.Bytes
	}
	if rep.Rounds != rounds {
		t.Fatalf("batch rounds=%d, want the slowest lane's %d", rep.Rounds, rounds)
	}
	if rep.Messages != messages || rep.Bytes != bytes {
		t.Fatalf("batch sent %d messages / %d bytes, its queries alone %d / %d", rep.Messages, rep.Bytes, messages, bytes)
	}
}

func TestServeEpochFailureKeepsSessionAlive(t *testing.T) {
	_, client := startEchoCluster(t, 3, 8)
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
	// A failing query inside a batch fails the whole batch (one epoch).
	if _, err := client.Do(scalarQuery(wire.OpKNN, 1, 4, 1313, 6)); err == nil {
		t.Fatal("batch containing the magic query should fail")
	}
	// The session must survive failed epochs.
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
	lc := startEchoClusterOptions(t, k, 9, FrontendOptions{Metrics: reg}, func() Handler { return &echoHandler{} })
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

func (h *mismatchedTagHandler) Load(id, k, leader int) (SessionInfo, error) {
	info, err := h.echoHandler.Load(id, k, leader)
	info.PointTag += uint8(id)
	return info, err
}

func TestFailedSessionReleasesNodes(t *testing.T) {
	// A session that fails validation must close the node control
	// connections so every resident node exits — ServeLocalOptions' error-path
	// Close would otherwise deadlock waiting for them.
	done := make(chan struct{})
	go func() {
		defer close(done)
		lc, err := ServeLocalOptions(3, 4, FrontendOptions{}, nil, func() Handler { return &mismatchedTagHandler{} })
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
		var reg wire.Writer
		reg.Kind(wire.KindRegister)
		reg.String("127.0.0.1:1")
		if err := wire.WriteFrame(conn, reg.Bytes()); err != nil {
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
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, 1, FrontendOptions{})
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
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, 1, FrontendOptions{})
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

// TestFrontendRejectsOverflowingShardCount pins the ready drain's sum check:
// two seats of 2⁶³−1 points each would wrap the global point count negative,
// and with it the range every query's ℓ is checked against. The session
// must fail instead.
func TestFrontendRejectsOverflowingShardCount(t *testing.T) {
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, 1, FrontendOptions{})
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
		a, err := wire.DecodeAssign(r)
		if err != nil {
			t.Fatal(err)
		}
		var ready wire.Writer
		wire.AppendReady(&ready, wire.Ready{Node: a.ID, ShardLen: math.MaxInt64, PointTag: wire.PointScalar})
		if err := wire.WriteFrame(conn, ready.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, wire.EncodeShardSummary(wire.ShardSummary{Node: a.ID})); err != nil {
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

// TestJoinRejectsAssignBeyondPayload pins the join's bounds check: an
// Assign whose cluster size k promises more addresses than the frame holds
// fails the join with an error instead of allocating from that varint.
func TestJoinRejectsAssignBeyondPayload(t *testing.T) {
	addr := stubFrontend(t, func(conn net.Conn) {
		defer conn.Close()
		if _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		var w wire.Writer
		w.Kind(wire.KindAssign)
		w.Varint(0)       // seat
		w.Varint(1 << 40) // k
		w.U64(1)          // seed
		w.Varint(0)       // epoch
		w.Varint(0)       // no present peers
		w.String("127.0.0.1:1")
		_ = wire.WriteFrame(conn, w.Bytes())
	})
	err := ServeNodeObserved(addr, "127.0.0.1:0", "", nil, &echoHandler{})
	if err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Fatalf("join against an assign with k beyond its payload: got %v, want a bounds error", err)
	}
}

// meshStub is a fake mesh acceptor on a raw listener: it reads the dialer's
// hello and hands the connection to script.
func meshStub(t *testing.T, script func(conn net.Conn)) string {
	t.Helper()
	return stubFrontend(t, func(conn net.Conn) {
		defer conn.Close()
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Errorf("stub acceptor read hello: %v", err)
			return
		}
		script(conn)
	})
}

// TestMeshHandshakeFrameOvertakesAck is the regression test for the mesh
// ack race: an acceptor publishes the link before it acks, so a round
// frame of its own epoch can reach the dialer ahead of the ack. The dialer
// must deliver that frame to the epoch, not consume it as the ack.
func TestMeshHandshakeFrameOvertakesAck(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr := meshStub(t, func(conn net.Conn) {
		if err := writeRoundFrame(conn, flagData, 0, 0, []laneMsg{{payload: []byte("early")}}); err != nil {
			t.Errorf("stub acceptor round frame: %v", err)
		}
		if err := wire.WriteFrame(conn, nil); err != nil {
			t.Errorf("stub acceptor ack: %v", err)
		}
		<-release // keep the link up until the test has read its feed
	})
	node := newNode(1, 2, 0)
	defer node.closePeers()
	if err := dialPeer(node, 0, addr); err != nil {
		t.Fatalf("dialPeer with a round frame ahead of the ack: %v", err)
	}
	er, err := node.beginEpoch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer er.release()
	select {
	case f, ok := <-er.feeds[0]:
		if !ok {
			t.Fatalf("link died instead of delivering the frame: %v", er.peers[0].cause())
		}
		if f.flag != flagData || f.epoch != 0 || f.round != 0 || len(f.msgs) != 1 || f.msgs[0].lane != 0 || string(f.msgs[0].payload) != "early" {
			t.Fatalf("epoch 0 feed delivered %+v, want the round-0 frame written ahead of the ack", f)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the round-0 frame written ahead of the ack never reached epoch 0's feed")
	}
}

// TestMeshHandshakeUnackedDialIsBounded is the other half: an acceptor that
// never acks costs the dialer handshakeTimeout, not forever, and the
// half-open link does not stay installed.
func TestMeshHandshakeUnackedDialIsBounded(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 100 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	addr := meshStub(t, func(conn net.Conn) { <-release })
	node := newNode(1, 2, 0)
	defer node.closePeers()
	done := make(chan error, 1)
	go func() { done <- dialPeer(node, 0, addr) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "ack from 0") {
			t.Fatalf("dialPeer against a silent acceptor: got %v, want an ack timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dialPeer against a silent acceptor did not return within the handshake timeout")
	}
	if p := node.peerSnapshot()[0]; p != nil {
		t.Fatal("an unacked link stayed installed")
	}
}
