package tcp

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"distknn/internal/election"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// echoHandler is a minimal serving protocol for transport tests: the setup
// epoch elects a min-GUID leader; each query is a leader star — every worker
// sends the leader one message, the leader answers with one broadcast —
// plus v mod 3 idle rounds (so the lanes of a batch need different round
// counts), and returns one synthetic "winner" per node, so the frontend's
// per-query merge path is exercised. A query for the magic value 1313 fails
// on the worker after the leader before it sends anything, exercising
// epoch-failure recovery: the other workers only learn of the failure
// through the leader's abort.
type echoHandler struct {
	leader int
}

func (h *echoHandler) Setup(m kmachine.Env) (SessionInfo, error) {
	leader, err := election.MinGUID(m)
	if err != nil {
		return SessionInfo{}, err
	}
	h.leader = leader
	return SessionInfo{Leader: leader, ShardLen: 10, PointTag: wire.PointScalar}, nil
}

func (h *echoHandler) Rejoin(id, k, leader int) (SessionInfo, error) {
	h.leader = leader
	return SessionInfo{Leader: leader, ShardLen: 10, PointTag: wire.PointScalar}, nil
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
		out.Boundary = keys.Key{Dist: v}
		out.Value = float64(v)
	}
	return out, nil
}

// Direct satisfies the Handler interface; the echo handlers never report a
// metric summary, so no frontend in these tests direct-dispatches to them.
func (h *echoHandler) Direct(q wire.Query, qi int) (QueryResult, error) {
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
	lc, err := ServeLocal(k, seed, func() Handler { return &echoHandler{} })
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialFrontend(lc.Addr())
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
		rep, err := client.Do(scalarQuery(wire.OpKNN, 1, v))
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
		if res.Boundary.Dist != v || rep.Leader != lc.Leader() {
			t.Fatalf("query %d: boundary %v leader %d", v, res.Boundary, rep.Leader)
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
	rep, err := client.Do(scalarQuery(wire.OpKNN, 1, vs...))
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
		if res.Boundary.Dist != v || res.Value != float64(v) {
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
		single, err := client.Do(scalarQuery(wire.OpKNN, 1, v))
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

func TestFrontendValidatesQueries(t *testing.T) {
	_, client := startEchoCluster(t, 2, 9)
	badTag := scalarQuery(wire.OpKNN, 1, 1)
	badTag.Tag = wire.PointVector
	cases := []struct {
		name string
		q    wire.Query
	}{
		{"bad op", scalarQuery(99, 1, 1)},
		{"bad tag", badTag},
		{"l too small", scalarQuery(wire.OpKNN, 0, 1)},
		{"l too large", scalarQuery(wire.OpKNN, 21, 1)},
		{"empty batch", scalarQuery(wire.OpKNN, 1)},
	}
	for _, tc := range cases {
		if _, err := client.Do(tc.q); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Validation failures must not have consumed an epoch or broken the
	// session.
	if _, err := client.Do(scalarQuery(wire.OpKNN, 1, 4)); err != nil {
		t.Fatalf("valid query after rejections: %v", err)
	}
}

// mismatchedTagHandler makes every node report a different point tag, so
// the frontend must reject the session during the ready phase.
type mismatchedTagHandler struct{ echoHandler }

func (h *mismatchedTagHandler) Setup(m kmachine.Env) (SessionInfo, error) {
	info, err := h.echoHandler.Setup(m)
	info.PointTag += uint8(m.ID())
	return info, err
}

func TestFailedSessionReleasesNodes(t *testing.T) {
	// A session that fails validation must close the node control
	// connections so every resident node exits — ServeLocal's error-path
	// Close would otherwise deadlock waiting for them.
	done := make(chan struct{})
	go func() {
		defer close(done)
		lc, err := ServeLocal(3, 4, func() Handler { return &mismatchedTagHandler{} })
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
		t.Fatal("failed session left nodes (or ServeLocal) hanging")
	}
}

// TestNodeRejectsRetiredSessionMode pins the KindAssign mode byte: only
// wire.ModeServe is a session; the retired one-shot value 0 (or anything
// else) is refused at join.
func TestNodeRejectsRetiredSessionMode(t *testing.T) {
	addr := stubFrontend(t, func(conn net.Conn) {
		defer conn.Close()
		if _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		var w wire.Writer
		w.Kind(wire.KindAssign)
		w.U8(0)
		w.Varint(0)
		w.Varint(1)
		w.U64(1)
		w.String("127.0.0.1:1")
		_ = wire.WriteFrame(conn, w.Bytes())
	})
	err := ServeNodeObserved(addr, "127.0.0.1:0", "", nil, &echoHandler{})
	if err == nil || !strings.Contains(err.Error(), "session mode 0") {
		t.Fatalf("join against a mode-0 assignment: got %v, want a mode rejection", err)
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

// TestMeshHandshakeFrameOvertakesAck is the regression test for the setup
// epoch flake: an acceptor publishes the link before it acks, so a round
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
	node := newNode(1, 2)
	defer node.closePeers()
	if err := dialPeer(node, 0, addr); err != nil {
		t.Fatalf("dialPeer with a round frame ahead of the ack: %v", err)
	}
	er, err := node.beginEpoch(0, 1, -1)
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
	node := newNode(1, 2)
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
