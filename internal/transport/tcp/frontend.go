package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distknn/internal/obs"
	"distknn/internal/wire"
)

// Frontend is the client-facing side of a serving cluster. It performs
// rendezvous (machine indices in registration order, the mesh address book
// to every node) and then stays resident: it keeps the control connection
// to every node, dispatches client queries as BSP epochs, collates the
// nodes' winner shares per epoch, and answers the clients. Protocol traffic
// between nodes still flows over the mesh only; the frontend carries queries
// in and merged results out.
//
// Query epochs are pipelined by the epoch scheduler (scheduler.go): up to
// FrontendOptions.Window epochs run on the mesh concurrently, multiplexed
// over the epoch-tagged mesh and control frames, and with ServerBatch the
// scheduler also coalesces concurrently arriving single queries into
// lockstep batch epochs. Epoch ordinals (and with them the per-epoch seeds)
// are assigned at admission in arrival order, mirroring the in-process
// Cluster's atomic query counter; answers are bit-identical to serialized
// execution because every algorithm is exact.
//
// Node churn degrades the cluster instead of breaking it. A reader pump per
// control connection notices a dead node the moment its connection drops —
// even between queries — and marks its seat absent; a node reporting a
// fatal (mesh-level) epoch failure gets the implicated peer evicted the
// same way. A lost seat fails exactly the epochs that were in flight on it,
// each with a retryable "cluster degraded" error (wire.Reply.Degraded);
// while any seat is absent, new queries fail fast the same way without
// consuming an epoch ordinal. The seat heals when a node re-registers: the
// frontend grants it the absent slot, the node rebuilds its shard and
// splices replacement mesh links into the resident peers, and the session
// resumes at the current epoch ordinal — determinism per (seed, query
// stream) is preserved because per-epoch seeds derive from the ordinal.
type Frontend struct {
	ln   net.Listener
	k    int
	seed uint64

	sched *scheduler
	// pruner is the metric-space geometry of the served point type
	// (FrontendOptions.Pruner); non-nil enables pruned dispatch once every
	// seat has reported a metric-index summary.
	pruner Pruner

	ready    chan struct{} // closed once serving (or failed); see readyErr
	readyErr error         // written before ready closes on failure

	// rejoinMu serializes re-join handshakes: a later grant must see an
	// earlier sealed seat in its Present list, or two concurrent
	// re-joiners would never learn to dial each other and leave a hole in
	// the mesh. It is never held together with work on mu's critical
	// paths: queries, Close and evictions stay responsive during a slow
	// handshake.
	rejoinMu sync.Mutex

	// mu guards seat transitions (eviction, re-join), the address book and
	// the epoch ordinal counter. The scheduler may take its own lock while
	// holding mu (admission), never the other way around.
	mu        sync.Mutex
	slots     []*feSlot // one per machine id; nil until the session is ready
	addrs     []string  // mesh address book, updated on re-join
	leader    int
	total     int64   // global point count (sum of shard sizes)
	tag       uint8   // point encoding the nodes serve
	shardLens []int64 // per-node shard sizes, pinned at setup to vet re-joins
	epoch     uint64  // last assigned query-epoch ordinal

	clientsMu sync.Mutex
	clients   map[net.Conn]struct{} // live client connections, for Close

	closed atomic.Bool
}

// feSlot is one machine's seat at the frontend: its control connection and
// whether the node is present. gen distinguishes connection incarnations
// across re-joins, so a stale pump (or a stale in-flight epoch) can never
// evict — or satisfy — a freshly re-joined node; sinceEpoch is the epoch
// ordinal at which the current incarnation was seated, so a fatal mesh
// report about an older epoch can never implicate it either.
type feSlot struct {
	id         int
	gen        uint64
	sinceEpoch uint64
	conn       net.Conn
	present    bool
	lastLoss   error // why the seat is absent, for degraded replies
	// summary is the seat's metric-index shard summary, reported with every
	// ready frame. It is a property of the seat's data, not of a connection
	// incarnation: the deterministic shard rebuild makes a re-joining
	// node's summary bit-identical (the re-join handshake enforces it), so
	// it survives — and keeps gating pruning decisions across — churn.
	summary wire.ShardSummary
}

// NewFrontendOptions starts the serving listener on addr for a k-node
// cluster with the given session seed and epoch scheduler configuration
// (pipelining window, server-side batching). Call Serve to run the session.
func NewFrontendOptions(addr string, k int, seed uint64, opts FrontendOptions) (*Frontend, error) {
	if k < 1 {
		return nil, fmt.Errorf("tcp: frontend needs k >= 1, got %d", k)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: frontend listen: %w", err)
	}
	f := &Frontend{
		ln: ln, k: k, seed: seed,
		pruner:  opts.Pruner,
		ready:   make(chan struct{}),
		leader:  -1,
		clients: make(map[net.Conn]struct{}),
	}
	f.sched = newScheduler(f, opts)
	return f, nil
}

// trackClient registers a live client connection; it refuses (and the
// caller must drop the connection) once the frontend is closed.
func (f *Frontend) trackClient(conn net.Conn) bool {
	f.clientsMu.Lock()
	defer f.clientsMu.Unlock()
	if f.closed.Load() {
		return false
	}
	f.clients[conn] = struct{}{}
	return true
}

func (f *Frontend) untrackClient(conn net.Conn) {
	f.clientsMu.Lock()
	defer f.clientsMu.Unlock()
	delete(f.clients, conn)
}

// Addr returns the frontend's dialable address (nodes and clients share it).
func (f *Frontend) Addr() string { return f.ln.Addr().String() }

// Health reports the cluster's serving state for the admin plane's
// /healthz: OK only when the session finished rendezvous, the frontend
// is open, and every seat is present. Absent seats carry their last
// loss cause. Wire it into an admin endpoint as obs.AdminOptions.Health.
func (f *Frontend) Health() obs.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return obs.Health{Detail: "frontend closed"}
	}
	if f.slots == nil {
		return obs.Health{Detail: "waiting for node rendezvous"}
	}
	h := obs.Health{OK: true, Seats: make([]obs.SeatHealth, 0, len(f.slots))}
	for _, s := range f.slots {
		sh := obs.SeatHealth{ID: s.id, Present: s.present, Gen: s.gen}
		if !s.present {
			h.OK = false
			if s.lastLoss != nil {
				sh.Cause = s.lastLoss.Error()
			}
		}
		h.Seats = append(h.Seats, sh)
	}
	if !h.OK {
		h.Detail = "cluster degraded: seat(s) absent"
	}
	return h
}

// Serve runs the session: it accepts the k node registrations, configures
// the mesh, waits for every node's ready report, and then answers client
// queries until Close. A connection's first frame decides its role —
// KindRegister makes it a node control connection (a late one, once the
// session is running, a node re-joining after churn), KindQueryTagged a
// client; any other first frame closes it. Serve blocks for the life of
// the session; run it on its own goroutine.
func (f *Frontend) Serve() error {
	type reg struct {
		conn net.Conn
		addr string
	}
	regCh := make(chan reg)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := f.ln.Accept()
			if err != nil {
				return
			}
			go func() {
				payload, err := wire.ReadFrame(conn)
				if err != nil {
					conn.Close()
					return
				}
				r := wire.NewReader(payload)
				switch kind := r.Kind(); kind {
				case wire.KindRegister:
					addr := r.String()
					if r.Err() != nil {
						conn.Close()
						return
					}
					select {
					case regCh <- reg{conn, addr}:
					case <-f.ready:
						// Late registration: the cluster is already
						// running, so offer the newcomer an absent seat.
						f.handleRejoin(conn, addr)
					}
				case wire.KindQueryTagged:
					f.serveClient(conn, payload)
				default:
					conn.Close()
				}
			}()
		}
	}()

	// Rendezvous: collect k registrations, assign ids in arrival order.
	conns := make([]net.Conn, 0, f.k)
	addrs := make([]string, 0, f.k)

	fail := func(err error) error {
		// Release every registered node — a resident node blocked on its
		// control connection (ready wait or dispatch loop) exits cleanly
		// on EOF — and the listener, so a failed session neither strands
		// the cluster nor keeps the port bound after Serve returns.
		for _, conn := range conns {
			conn.Close()
		}
		f.ln.Close()
		f.readyErr = err
		close(f.ready)
		if f.closed.Load() {
			return nil
		}
		return err
	}
	for len(conns) < f.k {
		select {
		case r := <-regCh:
			conns = append(conns, r.conn)
			addrs = append(addrs, r.addr)
		case <-acceptDone:
			return fail(fmt.Errorf("tcp: frontend closed with %d of %d nodes registered", len(conns), f.k))
		}
	}
	for id, conn := range conns {
		a := wire.Assign{ID: id, K: f.k, Seed: f.seed, Leader: -1, Addrs: addrs}
		if err := wire.WriteFrame(conn, wire.EncodeAssign(a)); err != nil {
			return fail(fmt.Errorf("tcp: frontend assign to %d: %w", id, err))
		}
	}
	// The ready reports may never come, so Close must still release Serve:
	// a closed listener (Close, or a dead accept loop) closes the
	// registered connections, failing the reads below.
	setupDone := make(chan struct{})
	go func() {
		select {
		case <-acceptDone:
			for _, conn := range conns {
				conn.Close()
			}
		case <-setupDone:
		}
	}()

	// Wait for every node's post-setup report and verify agreement. All k
	// frames are drained before failing so that a setup error surfaces
	// the originating node's message (origin=1) instead of whichever
	// peer-abort echo happens to arrive on the lowest id.
	leader, tag := -1, uint8(0)
	var total int64
	shardLens := make([]int64, f.k)
	summaries := make([]wire.ShardSummary, f.k)
	haveFirst := false
	var setupErr error
	setupOrigin := false
	record := func(origin bool, err error) {
		if setupErr == nil || (origin && !setupOrigin) {
			setupErr, setupOrigin = err, origin
		}
	}
	for id, conn := range conns {
		rdy, sum, err := readReady(conn, id)
		if err != nil {
			var se setupError
			record(errors.As(err, &se) && se.origin, err)
			continue
		}
		switch {
		case rdy.Leader < 0 || rdy.Leader >= f.k:
			// A re-join grant names the leader; it must be a seat.
			record(true, fmt.Errorf("tcp: node %d elected %d, outside the %d-node cluster", id, rdy.Leader, f.k))
		case !haveFirst:
			leader, tag, haveFirst = rdy.Leader, rdy.PointTag, true
		case rdy.Leader != leader:
			record(true, fmt.Errorf("tcp: node %d elected %d, an earlier node elected %d", id, rdy.Leader, leader))
		case rdy.PointTag != tag:
			record(true, fmt.Errorf("tcp: node %d serves point tag %d, an earlier node serves %d", id, rdy.PointTag, tag))
		}
		shardLens[id] = rdy.ShardLen
		total += rdy.ShardLen
		summaries[id] = sum
	}
	close(setupDone)
	if setupErr != nil {
		return fail(setupErr)
	}

	f.mu.Lock()
	if f.closed.Load() {
		// Close ran during setup and found no seat to shut down; seating
		// now would start control pumps on a closed frontend.
		f.mu.Unlock()
		return fail(errors.New("tcp: frontend closed during setup"))
	}
	f.slots = make([]*feSlot, f.k)
	for id, conn := range conns {
		s := &feSlot{id: id, conn: conn, present: true, summary: summaries[id]}
		f.slots[id] = s
		go f.pump(s, s.gen, conn)
	}
	f.addrs = append([]string(nil), addrs...)
	f.leader = leader
	f.total = total
	f.tag = tag
	f.shardLens = shardLens
	f.mu.Unlock()
	close(f.ready)

	<-acceptDone
	return nil
}

// setupError is a node's own report that its setup failed; origin marks a
// failure that started in that node's program rather than a peer's abort
// echo. Only Serve's setup drain inspects it, to surface the origin.
type setupError struct {
	id     int
	msg    string
	origin bool
}

func (e setupError) Error() string { return fmt.Sprintf("tcp: node %d failed setup: %s", e.id, e.msg) }

// readReady reads seat id's ready report off its control connection: the
// KindReady frame and the metric-index summary frame that always follows it,
// both of which must name the seat. A KindError frame in its place — the
// node's setup failed — comes back as a setupError.
func readReady(conn net.Conn, id int) (rdy wire.Ready, sum wire.ShardSummary, err error) {
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return rdy, sum, fmt.Errorf("tcp: frontend read ready from node %d: %w", id, err)
	}
	r := wire.NewReader(payload)
	switch kind := r.Kind(); kind {
	case wire.KindReady:
	case wire.KindError:
		ne, err := wire.DecodeNodeError(r)
		if err != nil {
			return rdy, sum, fmt.Errorf("tcp: bad setup error from node %d", id)
		}
		return rdy, sum, setupError{id: id, msg: ne.Msg, origin: ne.Origin}
	default:
		return rdy, sum, fmt.Errorf("tcp: expected ready from node %d, got kind %d", id, kind)
	}
	if rdy, err = wire.DecodeReady(r); err != nil {
		return rdy, sum, fmt.Errorf("tcp: bad ready from node %d: %w", id, err)
	}
	if rdy.Node != id {
		return rdy, sum, fmt.Errorf("tcp: node %d reported ready as %d", id, rdy.Node)
	}
	if payload, err = wire.ReadFrame(conn); err != nil {
		return rdy, sum, fmt.Errorf("tcp: frontend read summary from node %d: %w", id, err)
	}
	r = wire.NewReader(payload)
	if kind := r.Kind(); kind != wire.KindSummary {
		return rdy, sum, fmt.Errorf("tcp: expected summary from node %d, got kind %d", id, kind)
	}
	if sum, err = wire.DecodeShardSummary(r); err != nil || sum.Node != id {
		return rdy, sum, fmt.Errorf("tcp: bad summary from node %d (%v)", id, err)
	}
	return rdy, sum, nil
}

// pump reads one node's control frames for one connection incarnation and
// pushes them into the epoch scheduler's collation. A read failure is the
// immediate death signal: the seat is marked absent on the spot — so a node
// dying between queries is noticed before the next dispatch — and every
// epoch in flight on this incarnation fails with a retryable degraded
// reply.
func (f *Frontend) pump(s *feSlot, gen uint64, conn net.Conn) {
	// One reusable buffer for the incarnation's lifetime: deliver decodes
	// results and errors into copies, so nothing outlives the iteration.
	var buf []byte
	for {
		payload, err := wire.ReadFrameInto(conn, buf)
		buf = payload
		if err != nil {
			cause := fmt.Errorf("lost node %d: %v", s.id, err)
			f.markAbsent(s, gen, cause)
			f.sched.seatLost(s.id, gen, cause)
			return
		}
		f.sched.deliver(s.id, gen, payload)
	}
}

func (f *Frontend) markAbsent(s *feSlot, gen uint64, cause error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.markAbsentLocked(s, gen, cause)
}

// markAbsentLocked retires one connection incarnation of a seat. A stale
// gen (the seat was already re-granted to a re-joined node) is a no-op.
// Every actual present→absent transition must be followed — after mu is
// released — by exactly one scheduler.seatLost call for the retired
// incarnation, so the epochs in flight on it fail instead of hanging.
func (f *Frontend) markAbsentLocked(s *feSlot, gen uint64, cause error) {
	if s.gen != gen || !s.present {
		return
	}
	s.present = false
	s.lastLoss = cause
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// evictSeat retires incarnation gen of seat id (a malformed or
// desynchronized control stream) and fails its in-flight epochs.
func (f *Frontend) evictSeat(id int, gen uint64, cause error) {
	f.mu.Lock()
	s := f.slots[id]
	act := s.present && s.gen == gen
	if act {
		f.markAbsentLocked(s, gen, cause)
	}
	f.mu.Unlock()
	if act {
		f.sched.seatLost(id, gen, cause)
	}
}

// evictImplicated handles a fatal mesh report from (reporter, reporterGen)
// about the given epoch: the implicated seat — the named lost peer, else
// the reporter itself — is retired and its in-flight epochs fail. A report
// from a reporter whose seat is already retired is the echo of the same
// fault from the link's other endpoint (both ends blame each other when
// one link breaks); acting on it would evict both nodes for one fault, so
// it is ignored. A report about an epoch older than the target seat's
// current incarnation concerns its predecessor's links (a delayed second
// report from before a quick re-join) and is ignored the same way.
func (f *Frontend) evictImplicated(reporter int, reporterGen, epoch uint64, lostPeer int, cause error) {
	f.mu.Lock()
	rs := f.slots[reporter]
	if rs.gen != reporterGen || !rs.present {
		f.mu.Unlock()
		return
	}
	target := rs
	if lostPeer >= 0 && lostPeer < f.k && lostPeer != reporter {
		target = f.slots[lostPeer]
		cause = fmt.Errorf("node %d lost its link to node %d: %v", reporter, lostPeer, cause)
	}
	gen := target.gen
	act := target.present && epoch > target.sinceEpoch
	if act {
		f.markAbsentLocked(target, gen, cause)
	}
	f.mu.Unlock()
	if act {
		f.sched.seatLost(target.id, gen, cause)
	}
}

// EvictNode forcibly retires node id's seat and closes its control
// connection: the node's ServeNodeObserved returns ErrSessionLost, and the seat
// becomes re-joinable. Epochs in flight on the node fail with a retryable
// degraded error, and queries keep failing that way until a node takes the
// seat back. It exists for operators (kick a wedged or partitioned node so
// it re-joins with fresh links) and for churn tests.
func (f *Frontend) EvictNode(id int) error {
	<-f.ready
	if f.readyErr != nil {
		return f.readyErr
	}
	if id < 0 || id >= f.k {
		return fmt.Errorf("tcp: evict: no node %d in a %d-node cluster", id, f.k)
	}
	f.mu.Lock()
	s := f.slots[id]
	if !s.present {
		f.mu.Unlock()
		return fmt.Errorf("tcp: evict: node %d is not present", id)
	}
	gen := s.gen
	cause := fmt.Errorf("node %d evicted", id)
	f.markAbsentLocked(s, gen, cause)
	f.mu.Unlock()
	f.sched.seatLost(id, gen, cause)
	return nil
}

// handleRejoin runs the re-join handshake for one connection: grant the
// lowest absent seat, send the assignment, and wait for the node's ready
// report. Which absent seat a node takes never changes an answer: every
// shard is a pure function of (id, k), and the ready check below vets the
// rebuilt shard against the seat. Handshakes are serialized with each
// other (rejoinMu), but the epoch lock is held only to grant and later to
// seal the seat — never across the handshake's network I/O, so a slow (or
// hostile) re-joiner cannot stall degraded replies, Close, or evictions.
// No query epoch can race the mesh-link splicing: the granted seat stays
// absent until the seal, and an absent seat gates all dispatches.
func (f *Frontend) handleRejoin(conn net.Conn, addr string) {
	deny := func(msg string) {
		_ = wire.WriteFrame(conn, wire.EncodeNodeError(wire.NodeError{LostPeer: -1, Msg: msg}))
		conn.Close()
	}
	if f.readyErr != nil {
		deny(fmt.Sprintf("session failed: %v", f.readyErr))
		return
	}
	f.rejoinMu.Lock()
	defer f.rejoinMu.Unlock()
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		conn.Close()
		return
	}
	var slot *feSlot
	for _, s := range f.slots {
		if !s.present {
			slot = s
			break
		}
	}
	if slot == nil {
		f.mu.Unlock()
		deny("no absent seat to re-join (cluster is full)")
		return
	}
	f.addrs[slot.id] = addr
	// The epoch snapshot stays valid for the whole handshake: the granted
	// seat is absent until the seal, and queries cannot consume epochs
	// while any seat is absent. Leader, shard sizes and the point tag are
	// immutable after setup.
	a := wire.Assign{
		ID: slot.id, K: f.k, Seed: f.seed,
		Leader: f.leader, Epoch: f.epoch,
		Addrs: append([]string(nil), f.addrs...),
	}
	for _, s := range f.slots {
		if s.present {
			a.Present = append(a.Present, s.id)
		}
	}
	f.mu.Unlock()

	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	//knnlint:allow lockio -- rejoinMu exists to serialize this handshake I/O; the conn carries a handshake deadline
	if err := wire.WriteFrame(conn, wire.EncodeAssign(a)); err != nil {
		conn.Close()
		return
	}
	// The node now rebuilds its shard and dials the present peers; its
	// ready report seals the seat. rejoinMu stays held across these reads —
	// serializing the handshake is what it is for — and the conn carries the
	// handshake deadline.
	rdy, sum, err := readReady(conn, slot.id)
	// A deterministic shard provider must reproduce the shard length and the
	// metric summary bit-for-bit — otherwise the frontend's ℓ validation and
	// pruning geometry would silently diverge from the node's data.
	switch {
	case err != nil:
		deny(err.Error())
		return
	case rdy.Leader != f.leader:
		deny(fmt.Sprintf("ready reports leader %d, session elected %d", rdy.Leader, f.leader))
		return
	case rdy.ShardLen != f.shardLens[slot.id]:
		deny(fmt.Sprintf("shard of %d points, seat %d held %d — rebuilt data must match", rdy.ShardLen, slot.id, f.shardLens[slot.id]))
		return
	case rdy.PointTag != f.tag:
		deny(fmt.Sprintf("point tag %d, cluster serves %d", rdy.PointTag, f.tag))
		return
	case sum.Has != slot.summary.Has,
		math.Float64bits(sum.Radius) != math.Float64bits(slot.summary.Radius),
		!bytes.Equal(sum.Center, slot.summary.Center):
		deny(fmt.Sprintf("metric summary differs from the one seat %d held — rebuilt data must match", slot.id))
		return
	}
	conn.SetDeadline(time.Time{})
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		conn.Close()
		return
	}
	slot.gen++
	slot.sinceEpoch = f.epoch
	slot.conn = conn
	slot.present = true
	slot.lastLoss = nil
	go f.pump(slot, slot.gen, conn)
}

// prunableLocked reports whether pruned dispatch is available: a pruner is
// configured and every seat reported a usable metric summary at setup.
// Presence does not matter here — an absent seat only blocks the pruned
// queries whose ball reaches its shard (runPruned checks per dispatch).
// Callers hold f.mu.
func (f *Frontend) prunableLocked() bool {
	if f.pruner == nil || f.slots == nil {
		return false
	}
	for _, s := range f.slots {
		if !s.summary.Has {
			return false
		}
	}
	return true
}

// Leader returns the cluster's elected leader (-1 before the session is
// ready).
func (f *Frontend) Leader() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leader
}

// Close ends the session: it stops accepting connections, fails every
// queued and in-flight query epoch with a retryable error, asks every node
// to shut down, and releases the control and client connections. The nodes
// drain their in-flight epochs before tearing their meshes down, so a close
// mid-query never strands a peer. A Close during setup, before the nodes
// report ready, closes their connections too, and Serve returns without
// seating them. Safe to call more than once.
func (f *Frontend) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := f.ln.Close()
	// Fail the scheduler first: in-flight collation jobs answer their
	// clients with the retryable closing reply instead of racing the
	// control pumps' death notices below.
	f.sched.shutdown()
	f.mu.Lock()
	for _, s := range f.slots {
		if s.conn != nil {
			// The shutdown frame is a courtesy (the connection closes
			// right below either way): a healthy node's socket buffer
			// takes it instantly, and a wedged one must not hold f.mu
			// hostage, so the write gets a short deadline.
			var w wire.Writer
			w.Kind(wire.KindShutdown)
			s.conn.SetWriteDeadline(time.Now().Add(time.Second))
			//knnlint:allow lockio -- courtesy shutdown frame under a 1s write deadline; a wedged node cannot hold f.mu
			_ = wire.WriteFrame(s.conn, w.Bytes())
			s.conn.Close()
			s.conn = nil
		}
	}
	f.mu.Unlock()
	// Unblock serveClient goroutines parked in ReadFrame so a long-lived
	// process reclaims their goroutines and sockets.
	f.clientsMu.Lock()
	defer f.clientsMu.Unlock()
	//knnlint:allow detsource -- closing every client conn; close order is unobservable
	for conn := range f.clients {
		conn.Close()
	}
	f.clients = nil
	return err
}

// maxClientOutstanding bounds the tagged queries one client connection may
// have in flight at the frontend. Beyond it the connection's read loop
// stops pulling frames, so a flooding client backs up in its own socket
// buffers instead of spawning unbounded goroutines. It is intentionally
// wider than any scheduler window (maxWindow) so the cap never throttles a
// client below the cluster's own pipelining capacity.
const maxClientOutstanding = 256

// serveClient answers one client connection's query stream; first is the
// already-read first frame.
//
// Every query is a tagged frame (wire.KindQueryTagged) and runs on its own
// goroutine, so many can overlap inside the epoch scheduler's window; its
// reply — written under a per-connection write lock — carries the client's
// tag, so completion order is free. Any other frame ends the connection.
// Frame buffers are pooled: the read loop checks a buffer out per frame and
// the query goroutine returns it once the decoded query (which aliases the
// payload) is dead.
func (f *Frontend) serveClient(conn net.Conn, first []byte) {
	defer conn.Close()
	if !f.trackClient(conn) {
		return
	}
	defer f.untrackClient(conn)
	<-f.ready

	var wmu sync.Mutex // serializes reply frames (query goroutines race)
	var wg sync.WaitGroup
	// Close the socket before waiting: an in-flight reply writer blocked
	// on a dead peer fails immediately instead of stalling the teardown.
	defer func() {
		conn.Close()
		wg.Wait()
	}()
	sem := make(chan struct{}, maxClientOutstanding)

	writeReply := func(tag uint64, rep wire.Reply) error {
		wmu.Lock()
		defer wmu.Unlock()
		w := wire.GetWriter()
		defer wire.PutWriter(w)
		w.BeginFrame()
		wire.AppendReplyTagged(w, tag, rep)
		//knnlint:allow lockio -- wmu exists to serialize reply writes to this client conn; nothing else hides behind it
		return w.EndFrame(conn)
	}

	payload := first
	for {
		r := wire.NewReader(payload)
		kind, tag := r.Kind(), r.Varint()
		if kind != wire.KindQueryTagged || r.Err() != nil {
			// Not a query — or one without a tag to correlate a reply to.
			wire.PutFrameBuf(payload)
			return
		}
		var q wire.Query
		err := wire.DecodeQueryInto(r, &q)
		if f.readyErr != nil {
			err = fmt.Errorf("cluster unavailable: %v", f.readyErr)
		} else if err != nil {
			err = fmt.Errorf("bad query: %v", err)
		}
		if err != nil {
			wire.PutFrameBuf(payload)
			if werr := writeReply(tag, wire.Reply{Err: err.Error()}); werr != nil {
				return
			}
		} else {
			// The goroutine owns the frame buffer until the query (whose
			// points alias it) is answered.
			sem <- struct{}{}
			wg.Add(1)
			go func(payload []byte) {
				defer wg.Done()
				rep := f.answer(q)
				wire.PutFrameBuf(payload)
				// A dead connection surfaces on the read loop's next
				// ReadFrameInto; nothing to do about it here.
				_ = writeReply(tag, rep)
				<-sem
			}(payload)
		}
		var rerr error
		if payload, rerr = wire.ReadFrameInto(conn, wire.GetFrameBuf()); rerr != nil {
			return
		}
	}
}

// answer validates one client query against the session and hands it to
// the epoch scheduler. The session parameters (tag, global point count) are
// immutable once ready closes, so validation takes no lock; a validation
// failure consumes no epoch ordinal.
func (f *Frontend) answer(q wire.Query) wire.Reply {
	if q.Op < wire.OpKNN || q.Op > wire.OpRegress {
		return wire.Reply{Err: fmt.Sprintf("unknown op %d", q.Op)}
	}
	if q.Tag != f.tag {
		return wire.Reply{Err: fmt.Sprintf("cluster serves point tag %d, query uses %d", f.tag, q.Tag)}
	}
	if q.L < 1 || int64(q.L) > f.total {
		return wire.Reply{Err: fmt.Sprintf("l=%d out of range [1, %d]", q.L, f.total)}
	}
	if len(q.Points) < 1 || len(q.Points) > wire.MaxBatch {
		return wire.Reply{Err: fmt.Sprintf("batch of %d out of range [1, %d]", len(q.Points), wire.MaxBatch)}
	}
	return f.sched.submit(q)
}

// degradedLocked builds the retryable degraded reply naming the absent
// seats among need (nil: every seat), or returns ok=true when all of them
// are filled.
func (f *Frontend) degradedLocked(need []*feSlot) (wire.Reply, bool) {
	if need == nil {
		need = f.slots
	}
	var absent []int
	var cause error
	for _, s := range need {
		if !s.present {
			absent = append(absent, s.id)
			if cause == nil {
				cause = s.lastLoss
			}
		}
	}
	if len(absent) == 0 {
		return wire.Reply{}, true
	}
	msg := fmt.Sprintf("cluster degraded (%d of %d nodes): waiting for node(s) %v", f.k-len(absent), f.k, absent)
	if cause != nil {
		msg += fmt.Sprintf(" (%v)", cause)
	}
	return wire.Reply{Err: msg, Degraded: true}, false
}
