package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// SetupSeedStream is the seed-derivation stream reserved for the setup epoch
// (leader election). It matches the stream the in-process facade reserves
// for its construction-time election, so a serving TCP cluster and an
// in-process Cluster built from the same session seed derive identical
// election randomness. Query epochs use the small positive ordinals
// 1, 2, 3, …, which never collide with it.
const SetupSeedStream = ^uint64(0)

// handshakeTimeout bounds the blocking network steps of the mesh hello/ack
// handshake and the re-join handshake, so a wedged counterparty cannot pin
// a mesh accept goroutine — or the frontend's epoch lock — forever.
var handshakeTimeout = 30 * time.Second

// ErrSessionLost marks a resident node's exit because its serving session
// died under it — the frontend closed (or evicted) its control connection
// without a clean shutdown frame. The node's seat is recoverable: re-join
// by calling ServeNodeObserved again (the frontend grants a late
// registration an absent seat), as cmd/knnnode's -rejoin loop does.
// Matched with errors.Is.
var ErrSessionLost = errors.New("tcp: serving session lost")

// ErrDegraded marks a query refused (or failed in flight) because the
// serving cluster is missing nodes. The failure is transient and safe to
// retry — every query op is an idempotent read — and the cluster answers
// again once the absent node re-joins. Matched with errors.Is.
var ErrDegraded = errors.New("cluster degraded")

// SessionInfo is what a node's Handler learns during the setup epoch and
// reports to the frontend in its KindReady frame.
type SessionInfo struct {
	// Leader is the elected leader's machine index (identical on every
	// node — the frontend verifies agreement before serving).
	Leader int
	// ShardLen is the number of points this node holds; the frontend sums
	// the shards to validate ℓ against the global point count.
	ShardLen int
	// PointTag is the wire encoding this node's shard understands
	// (wire.PointScalar, …); the frontend rejects mismatched queries.
	PointTag uint8
	// Summary is the shard's metric-index summary (centroid + radius),
	// reported right after the ready frame. A zero value (Has false)
	// means the shard has no metric geometry and disables pruned dispatch
	// for the session.
	Summary wire.ShardSummary
}

// QueryResult is one node's local outcome for one query of a batched
// epoch. Winners is this node's share of that query's global answer; the
// remaining fields are only read from the leader node's result.
type QueryResult struct {
	Winners    []points.Item
	Boundary   keys.Key
	Survivors  int64
	FellBack   bool
	Iterations int
	Value      float64 // OpClassify / OpRegress aggregate
}

// Handler is the per-node protocol logic a resident node runs: one Setup
// epoch at session start (leader election, shard discovery) — or one Rejoin
// call when the node re-joins a running session — then, per dispatched
// batch, one Query call per point of the batch, all inside a single BSP
// epoch. Setup and Query run on the standing mesh; Rejoin is local (the
// leader is already elected and handed down by the frontend), so it only
// rebuilds the node's shard and index.
//
// Topology is part of the contract. Setup runs on the full mesh and may
// message any node. Query runs in a star around SessionInfo.Leader: a
// worker may only Send to the leader, and only the leader may Broadcast —
// the shape of every core and dsel protocol. A worker that messages another
// worker fails its epoch with a program error (no link is dropped); the
// star is what lets a query round cost 2(k−1) frames instead of k(k−1).
//
// Query calls run concurrently on one receiver: every per-point call is a
// lane of its epoch (each on its own Env; see batch.go), a batch's lanes
// share that epoch's rounds, and the frontend's scheduler pipelines whole
// epochs, so lanes of distinct dispatched epochs execute concurrently on the
// same node too. Implementations must therefore keep
// per-call state local and treat state written in Setup/Rejoin (the shard,
// the leader) as read-only during queries. A Handler instance belongs to
// one node.
// Direct answers one query point of a pruned (no-mesh) dispatch: the node
// returns its local top-ℓ winners straight from its shard, with no BSP
// epoch and no Env — the frontend merges the shares of the contacted nodes
// itself. The frontend only sends direct dispatches to sessions whose every
// node reported a metric-index summary, so a Handler that leaves
// SessionInfo.Summary unset never receives one (return an error).
type Handler interface {
	Setup(m kmachine.Env) (SessionInfo, error)
	Rejoin(id, k, leader int) (SessionInfo, error)
	Query(m kmachine.Env, q wire.Query, qi int) (QueryResult, error)
	Direct(q wire.Query, qi int) (QueryResult, error)
}

// ServeNodeObserved joins the serving cluster at the frontend's address and
// stays resident: it meshes up once, runs h.Setup as the setup epoch, reports
// readiness, and then executes one epoch per dispatched query batch until
// the frontend shuts the session down (clean return). It is the one node
// entry point; the node's serve-loop telemetry (epochs served, mesh
// round/message/byte totals, control-plane frame bytes, pool traffic — see
// metrics.go for the instrument names) is bound to reg, and a nil reg
// records into a private registry.
//
// If the frontend is already past rendezvous and a cluster seat is absent
// (its node died or was evicted), the Assign grant names the session's
// leader: the node takes over the lowest absent seat, rebuilds its shard
// via h.Rejoin, splices replacement mesh links into the resident peers, and
// resumes serving at the session's current epoch ordinal — so a freshly
// started process heals a degraded cluster with no extra flags.
//
// meshAddr is the address the node's mesh listener binds; advertise is the
// address peers are told to dial, for deployments where the bind address is
// not reachable from other hosts (e.g. bind "0.0.0.0:7101", advertise
// "10.0.0.5:7101"). An empty advertise falls back to the listener's own
// address, which is right for single-host and loopback deployments.
//
// Failure handling: a query epoch whose program fails (including a program
// failure on a peer) is reported to the frontend and serving continues. A
// broken mesh link is reported with the fatal bit and the node keeps its
// seat, waiting for the lost peer to re-join; only the loss of the control
// connection itself ends the session, with an error matching ErrSessionLost
// so callers can re-join (see cmd/knnnode -rejoin).
func ServeNodeObserved(coordAddr, meshAddr, advertise string, reg *obs.Registry, h Handler) error {
	return serveNode(coordAddr, meshAddr, advertise, h, nil, reg)
}

// nodeSession aggregates one resident node's sockets so in-package tests
// can simulate an abrupt crash: kill closes everything mid-flight, with no
// shutdown frames or halt flags, exactly like a killed process.
type nodeSession struct {
	coord net.Conn
	node  *Node
	ln    net.Listener
}

func (s *nodeSession) kill() {
	s.coord.Close()
	s.ln.Close()
	s.node.closePeers()
}

func serveNode(coordAddr, meshAddr, advertise string, h Handler, hook func(*nodeSession), reg *obs.Registry) error {
	nm := newNodeMetrics(reg)
	ln, err := net.Listen("tcp", meshAddr)
	if err != nil {
		return fmt.Errorf("tcp: node mesh listen: %w", err)
	}
	defer ln.Close()

	coord, a, err := joinServe(coordAddr, ln, advertise)
	if err != nil {
		return err
	}
	defer coord.Close()

	node := newNode(a.ID, a.K)
	defer node.closePeers()
	// The accept loop runs for the whole session: it seats the initial
	// higher-id dialers and, later, replacement links from re-joining
	// peers.
	go meshAcceptLoop(node, ln)
	if hook != nil {
		hook(&nodeSession{coord: coord, node: node, ln: ln})
	}

	var info SessionInfo
	if a.Leader >= 0 {
		// The grant names a leader, so the session is running: no setup
		// epoch, and dispatched epochs continue at the session's current
		// ordinal (the fresh mesh links carry no stale-epoch leftovers).
		for _, j := range a.Present {
			if err := dialPeer(node, j, a.Addrs[j]); err != nil {
				return err
			}
		}
		if info, err = h.Rejoin(a.ID, a.K, a.Leader); err != nil {
			_ = writeNodeError(coord, a.Epoch, err)
			return fmt.Errorf("tcp: node %d rejoin: %w", a.ID, err)
		}
	} else {
		if err := buildMesh(node, a.Addrs); err != nil {
			return err
		}
		// Setup epoch (ordinal 0): elect the leader exactly once per
		// session.
		if _, err := node.runEpoch(0, xrand.DeriveSeed(a.Seed, SetupSeedStream), func(m kmachine.Env) error {
			var err error
			info, err = h.Setup(m)
			return err
		}); err != nil {
			_ = writeNodeError(coord, 0, err)
			return fmt.Errorf("tcp: node %d setup: %w", a.ID, err)
		}
	}

	var ready wire.Writer
	wire.AppendReady(&ready, wire.Ready{Node: a.ID, Leader: info.Leader, ShardLen: int64(info.ShardLen), PointTag: info.PointTag})
	if err := wire.WriteFrame(coord, ready.Bytes()); err != nil {
		return fmt.Errorf("tcp: node %d ready: %w (%v)", a.ID, ErrSessionLost, err)
	}
	// The metric-index summary follows every ready frame — setup and
	// re-join alike — so the frontend always has current centroid/radius
	// geometry for each seated incarnation before it serves queries on it.
	info.Summary.Node = a.ID
	if err := wire.WriteFrame(coord, wire.EncodeShardSummary(info.Summary)); err != nil {
		return fmt.Errorf("tcp: node %d summary: %w (%v)", a.ID, ErrSessionLost, err)
	}

	// Dispatched epochs execute concurrently — the frontend's scheduler
	// pipelines up to its window of query epochs, and each one runs on its
	// own goroutine against its own epoch frame feeds. Control-connection
	// writes (results, error reports) are serialized; a failed control
	// write closes the connection, which surfaces as a session loss at the
	// read loop. In-flight epochs are drained before the mesh comes down,
	// so a clean shutdown never strands a peer mid-exchange.
	var ctrlMu sync.Mutex
	// report ends one dispatched epoch on the control connection: the
	// node's result, or — when err is set — the failure report. Program
	// failures are recoverable; mesh failures set the fatal bit and name
	// the lost peer, and the node keeps its seat — the frontend gates
	// dispatches until the implicated node re-joins. The pooled writer is
	// checked out and released here, so its ownership is provable
	// function-locally (knnlint poolown).
	report := func(epoch uint64, nr wire.NodeResult, err error) {
		var w *wire.Writer
		if err != nil {
			nm.epochErrors.Inc()
			w = epochErrorFrame(epoch, err)
		} else {
			w = wire.GetWriter()
			w.BeginFrame()
			wire.AppendNodeResult(w, nr)
		}
		ctrlMu.Lock()
		//knnlint:allow lockio -- ctrlMu exists to serialize exactly this control write; no other state hides behind it
		werr := w.EndFrame(coord)
		ctrlMu.Unlock()
		if werr == nil {
			// The writer still holds the whole frame after EndFrame.
			nm.ctrlOut.Add(int64(len(w.Bytes())))
		} else {
			coord.Close()
		}
		wire.PutWriter(w)
	}
	var epochs sync.WaitGroup
	defer epochs.Wait()

	for {
		// Dispatch frames are read into pooled buffers: the decoded query's
		// points alias the frame, so the buffer is handed to the epoch
		// goroutine and returned once the epoch is done with the query.
		payload, err := wire.ReadFrameInto(coord, wire.GetFrameBuf())
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				// No shutdown frame came first: the frontend died, or this
				// node was evicted. Either way the seat is re-joinable.
				return fmt.Errorf("tcp: node %d control connection closed: %w", a.ID, ErrSessionLost)
			}
			return fmt.Errorf("tcp: node %d read dispatch: %v: %w", a.ID, err, ErrSessionLost)
		}
		nm.ctrlIn.Add(int64(len(payload)) + 4) // payload + length header
		r := wire.NewReader(payload)
		switch kind := r.Kind(); kind {
		case wire.KindShutdown:
			return nil
		case wire.KindDispatch:
			epoch := r.Varint()
			q, err := wire.DecodeQuery(r)
			if err != nil {
				return fmt.Errorf("tcp: node %d bad dispatch: %w", a.ID, err)
			}
			// Subscribing the epoch's frame feeds happens here, on the read
			// loop, so subscriptions follow dispatch order (the
			// demultiplexer requires monotonic epochs) and never race a
			// later dispatch. A mesh with a dead link refuses the epoch
			// with the fatal bit naming the lost peer — the frontend gates
			// further dispatches until the implicated node re-joins.
			er, err := node.beginEpoch(epoch, xrand.DeriveSeed(a.Seed, epoch), info.Leader)
			if err != nil {
				wire.PutFrameBuf(payload)
				// Tell the live peers too: one of them may already have
				// begun this epoch and would otherwise wait forever for
				// this node's frames (the frontend fails the client's
				// query either way, but the peer's epoch goroutine must
				// not leak).
				node.abortEpoch(epoch)
				report(epoch, wire.NodeResult{}, err)
				continue
			}
			epochs.Add(1)
			go func() {
				defer epochs.Done()
				nr, err := runMeshEpoch(er, q, h, a.ID, info.Leader)
				if err == nil {
					nm.epochsServed.Inc()
					nm.meshRounds.Add(int64(nr.Rounds))
					nm.meshFrames.Add(er.metrics.Frames)
					nm.meshMessages.Add(nr.Messages)
					nm.meshBytes.Add(nr.Bytes)
				}
				report(epoch, nr, err)
				wire.PutFrameBuf(payload)
			}()
		case wire.KindDispatchDirect:
			// A pruned epoch never touches the mesh: no beginEpoch (the
			// demultiplexer's monotonic-ordinal invariant is for mesh
			// epochs only — direct ordinals interleave freely), no seed,
			// no peers. The node answers straight from its shard, for
			// exactly the points the frame carries — the whole client batch
			// or the sub-batch the frontend's admission test left for it.
			epoch := r.Varint()
			q, err := wire.DecodeQuery(r)
			if err != nil {
				return fmt.Errorf("tcp: node %d bad direct dispatch: %w", a.ID, err)
			}
			epochs.Add(1)
			go func() {
				defer epochs.Done()
				nr, err := runDirectEpoch(epoch, q, h, a.ID)
				if err == nil {
					nm.directServed.Inc()
				}
				report(epoch, nr, err)
				wire.PutFrameBuf(payload)
			}()
		default:
			return fmt.Errorf("tcp: node %d got unexpected control kind %d", a.ID, kind)
		}
	}
}

// runMeshEpoch executes one dispatched BSP query epoch — one lane per point
// of the batch — on its own goroutine and returns the node's result for the
// frontend.
func runMeshEpoch(er *epochRun, q wire.Query, h Handler, id, leader int) (wire.NodeResult, error) {
	res := make([]QueryResult, len(q.Points))
	progs := make([]kmachine.Program, len(q.Points))
	for qi := range progs {
		progs[qi] = func(m kmachine.Env) error {
			var qerr error
			res[qi], qerr = h.Query(m, q, qi)
			return qerr
		}
	}
	if err := er.run(progs); err != nil {
		return wire.NodeResult{}, err
	}
	met := er.metrics
	nr := wire.NodeResult{
		Epoch:    er.epoch,
		Node:     id,
		Rounds:   met.Rounds,
		Messages: met.Messages,
		Bytes:    met.Bytes,
		IsLeader: id == leader,
		Queries:  make([]wire.NodeQueryResult, len(res)),
	}
	for qi, qr := range res {
		// The winner share only travels for KNN queries; Classify and
		// Regress replies carry the aggregate value, so shipping (and the
		// frontend merging) up to ℓ items per query would be wasted work.
		if q.Op == wire.OpKNN {
			nr.Queries[qi].Winners = qr.Winners
		}
		if nr.IsLeader {
			nr.Queries[qi].Boundary = qr.Boundary
			nr.Queries[qi].Survivors = qr.Survivors
			nr.Queries[qi].FellBack = qr.FellBack
			nr.Queries[qi].Iterations = qr.Iterations
			nr.Queries[qi].Value = qr.Value
		}
	}
	return nr, nil
}

// runDirectEpoch answers one pruned (no-mesh) epoch: the node's local
// top-ℓ winners per query point, as a winners-only NodeResult (IsLeader
// false; zero mesh cost — the frontend accounts a pruned query's cost
// itself). A failed point fails the epoch with a recoverable error.
func runDirectEpoch(epoch uint64, q wire.Query, h Handler, id int) (wire.NodeResult, error) {
	nr := wire.NodeResult{
		Epoch:   epoch,
		Node:    id,
		Queries: make([]wire.NodeQueryResult, len(q.Points)),
	}
	for qi := range q.Points {
		res, err := h.Direct(q, qi)
		if err != nil {
			return wire.NodeResult{}, err
		}
		nr.Queries[qi].Winners = res.Winners
	}
	return nr, nil
}

// joinServe registers with the frontend and decodes its Assign grant: a
// fresh rendezvous seat (no leader yet) or an absent seat of a running
// session.
func joinServe(coordAddr string, ln net.Listener, advertise string) (net.Conn, wire.Assign, error) {
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	coord, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return nil, wire.Assign{}, fmt.Errorf("tcp: dial coordinator: %w", err)
	}
	fail := func(err error) (net.Conn, wire.Assign, error) {
		coord.Close()
		return nil, wire.Assign{}, err
	}
	var reg wire.Writer
	reg.Kind(wire.KindRegister)
	reg.String(advertise)
	if err := wire.WriteFrame(coord, reg.Bytes()); err != nil {
		return fail(fmt.Errorf("tcp: register: %w", err))
	}
	payload, err := wire.ReadFrame(coord)
	if err != nil {
		return fail(fmt.Errorf("tcp: read assignment: %w", err))
	}
	r := wire.NewReader(payload)
	switch kind := r.Kind(); kind {
	case wire.KindAssign:
		a, err := wire.DecodeAssign(r)
		if err != nil {
			return fail(fmt.Errorf("tcp: bad assignment: %w", err))
		}
		return coord, a, nil
	case wire.KindError:
		ne, err := wire.DecodeNodeError(r)
		if err != nil {
			return fail(fmt.Errorf("tcp: bad join rejection: %w", err))
		}
		return fail(fmt.Errorf("tcp: join rejected: %s", ne.Msg))
	default:
		return fail(fmt.Errorf("tcp: expected assignment, got kind %d", kind))
	}
}

// meshAcceptLoop seats incoming mesh links for the session's lifetime. The
// dialer identifies itself with a hello frame and gets an empty ack back
// once the link is installed — so a re-joining peer knows this node will
// route the next epoch through the replacement link before it reports
// ready. Installing first publishes the link before the ack is written: an
// epoch of this node that pins it may put round frames on the socket ahead
// of the ack (every frame is one Write, so they never interleave), which is
// why the dialer's link reader — not dialPeer — consumes the ack. A hello
// for a machine index that already has a link replaces it (the old socket
// is dead or stale by construction; the frontend never lets two nodes hold
// the same seat).
func meshAcceptLoop(n *Node, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			n.peersMu.Lock()
			n.acceptDown = true
			n.peersCond.Broadcast()
			n.peersMu.Unlock()
			return
		}
		go func(conn net.Conn) {
			conn.SetDeadline(time.Now().Add(handshakeTimeout))
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				conn.Close()
				return
			}
			r := wire.NewReader(payload)
			id := int(r.Varint())
			if r.Err() != nil || id < 0 || id >= n.k || id == n.id {
				conn.Close()
				return
			}
			conn.SetDeadline(time.Time{})
			n.installPeer(id, conn, false)
			if err := wire.WriteFrame(conn, nil); err != nil {
				conn.Close()
			}
		}(conn)
	}
}

// dialPeer dials machine j's mesh address and performs the mesh handshake:
// hello{id}, install the link, then wait for the ack confirming the peer has
// installed (or replaced) its end. The link's own reader consumes the ack,
// so round frames the peer's epochs wrote ahead of it reach the
// demultiplexer instead of being taken for it. A link that is not acked
// within handshakeTimeout, or fails first, is dropped again.
func dialPeer(n *Node, j int, addr string) error {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return fmt.Errorf("tcp: node %d dial peer %d: %w", n.id, j, err)
	}
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	var w wire.Writer
	w.Varint(uint64(n.id))
	if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
		conn.Close()
		return fmt.Errorf("tcp: node %d hello to %d: %w", n.id, j, err)
	}
	conn.SetWriteDeadline(time.Time{})
	p := n.installPeer(j, conn, true)
	timer := time.NewTimer(handshakeTimeout)
	defer timer.Stop()
	select {
	case <-p.acked:
		return nil
	case <-p.down:
		err = p.cause()
	case <-timer.C:
		err = fmt.Errorf("no ack within %v", handshakeTimeout)
	}
	n.dropPeer(j, p)
	return fmt.Errorf("tcp: node %d ack from %d: %w", n.id, j, err)
}

// buildMesh establishes the initial mesh: this node dials every lower
// machine index and waits until the accept loop has seated every higher one.
func buildMesh(n *Node, addrs []string) error {
	errs := make(chan error, n.id)
	for j := 0; j < n.id; j++ {
		go func(j int) { errs <- dialPeer(n, j, addrs[j]) }(j)
	}
	for j := 0; j < n.id; j++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	for {
		missing := -1
		for j := n.id + 1; j < n.k; j++ {
			if n.peers[j] == nil {
				missing = j
				break
			}
		}
		if missing == -1 {
			return nil
		}
		if n.acceptDown {
			return transportFault(missing, fmt.Errorf("tcp: node %d mesh listener closed waiting for peer %d", n.id, missing))
		}
		n.peersCond.Wait()
	}
}

// epochErrorFrame builds a failed-epoch report in a pooled writer (frame
// begun, ready for EndFrame): origin marks a failure of this
// node's own program (as opposed to a peer's error frame or a transport
// fault), fatal marks a broken mesh, and the lost peer is named when the
// fault could be attributed, so the frontend can evict exactly the
// implicated node.
func epochErrorFrame(epoch uint64, err error) *wire.Writer {
	w := wire.GetWriter()
	w.BeginFrame()
	wire.AppendNodeError(w, wire.NodeError{
		Epoch:    epoch,
		Origin:   !IsTransportError(err) && !errors.Is(err, errPeerAbort),
		Fatal:    IsTransportError(err),
		LostPeer: LostPeer(err),
		Msg:      err.Error(),
	})
	return w
}

// writeNodeError reports a failed epoch on the control connection; the
// setup and rejoin paths use it before the concurrent dispatch loop starts.
func writeNodeError(coord net.Conn, epoch uint64, err error) error {
	w := epochErrorFrame(epoch, err)
	werr := w.EndFrame(coord)
	wire.PutWriter(w)
	return werr
}
