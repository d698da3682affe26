package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distknn/internal/obs"
	"distknn/internal/wire"
)

// Frontend is the client-facing side of a serving cluster. It starts with
// k free seats and fills them through one join handshake (join), at
// bring-up and after churn alike: a registering node gets the lowest free
// seat. The session is ready once every seat has been sealed once. The
// frontend then stays resident: it keeps the control connection to every
// node, dispatches client queries as waves of direct dispatches, collates
// the nodes' local winner lists per wave, selects the answer itself, and
// answers the clients. Nodes never talk to each other.
//
// Queries are pipelined by the epoch scheduler (scheduler.go): up to
// FrontendOptions.Window queries are in flight at once, multiplexed over
// the epoch-tagged control frames, and with ServerBatch the scheduler also
// coalesces concurrently arriving single queries into batch queries. Epoch
// ordinals are assigned at admission in arrival order; answers are
// bit-identical to serialized execution because the fold is exact.
//
// Node churn degrades the cluster instead of breaking it. A reader pump per
// control connection notices a dead node the moment its connection drops —
// even between queries — and marks its seat absent. A lost seat fails
// exactly the waves that were in flight on it, each with a retryable
// "cluster degraded" error (wire.Reply.Degraded); while a seat a query
// needs is absent, the query fails fast the same way without consuming an
// epoch ordinal. The seat heals when a node re-registers: the same join
// grants it the free seat, the node rebuilds its shard (bit-identical,
// which join checks), and the session serves again.
//
// One mutex, mu, guards all of the frontend's mutable state — seats,
// scheduler and client connections — so a seat is lost in one critical
// section (retireLocked) that also fails the epochs in flight on it.
type Frontend struct {
	ln net.Listener
	k  int

	sched *scheduler
	// pruner is the metric-space geometry of the served point type
	// (FrontendOptions.Pruner); non-nil enables pruned dispatch once every
	// seat has reported a metric-index summary.
	pruner Pruner
	// radius and center are every seat's metric-index summary, captured
	// once when the first fill completes: nil without a pruner or when any
	// seat reported no summary. Every re-join must reproduce its seat's
	// summary bit for bit (vetLocked), so they never change; written under
	// mu before ready closes, they are read without the lock after it.
	radius []float64
	center [][]byte

	ready    chan struct{} // closed once every seat was sealed once, or the first fill failed
	readyErr error         // why the first fill failed; written under mu before ready closes

	// mu is the frontend's only lock. It guards the seats (grants, seals,
	// evictions), the session's point tag and count, the epoch ordinal
	// counter, the scheduler's window, jobs and buckets, and the accepted
	// connections. It is held across network I/O in exactly two places,
	// both deadline-bounded: dispatchWave's writes and Close's courtesy
	// shutdown frame. A join reads and writes no frame under it.
	mu     sync.Mutex
	slots  []*feSlot // one per machine id
	sealed int       // seats sealed at least once; the first fill is complete at k
	total  int64     // global point count (sum of the pinned shard sizes)
	tag    uint8     // point encoding the nodes serve, set by the first seal
	epoch  uint64    // last assigned query-epoch ordinal
	// conns holds every accepted connection that is not a seat's: those
	// still owing their first frame, and the clients. Close closes them.
	conns map[net.Conn]struct{}

	closed atomic.Bool
}

// feSlot is one machine's seat at the frontend: its control connection and
// whether the node is present. A seat with a conn but not present is
// granted: its join handshake is in progress. A seat without a conn is
// free. gen counts the seat's seals, so it distinguishes connection
// incarnations: a stale pump (or a stale in-flight epoch) can never evict —
// or satisfy — a freshly re-joined node, and gen 0 means never sealed.
type feSlot struct {
	id       int
	gen      uint64
	conn     net.Conn
	present  bool
	lastLoss error // why the seat is absent, for degraded replies
	// shardLen and summary are the first holder's shard size and
	// metric-index summary, pinned at the seat's first seal. They are a
	// property of the seat's data, not of a connection incarnation: the
	// deterministic shard rebuild makes every later holder's report
	// bit-identical (join enforces it), so the summary keeps gating pruning
	// decisions across churn.
	shardLen int64
	summary  wire.ShardSummary
}

// NewFrontendOptions starts the serving listener on addr for a k-node
// cluster with the given epoch scheduler configuration (pipelining window,
// server-side batching, pruning). Call Serve to run the session.
func NewFrontendOptions(addr string, k int, opts FrontendOptions) (*Frontend, error) {
	if k < 1 {
		return nil, fmt.Errorf("tcp: frontend needs k >= 1, got %d", k)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: frontend listen: %w", err)
	}
	f := &Frontend{
		ln: ln, k: k,
		pruner: opts.Pruner,
		ready:  make(chan struct{}),
		slots:  make([]*feSlot, k),
		conns:  make(map[net.Conn]struct{}),
	}
	for id := range f.slots {
		f.slots[id] = &feSlot{id: id}
	}
	f.sched = newScheduler(f, opts)
	return f, nil
}

// track registers an accepted connection for Close; it refuses (and the
// caller must drop the connection) once the frontend is closed.
func (f *Frontend) track(conn net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return false
	}
	f.conns[conn] = struct{}{}
	return true
}

func (f *Frontend) untrack(conn net.Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.conns, conn)
}

// Addr returns the frontend's dialable address (nodes and clients share it).
func (f *Frontend) Addr() string { return f.ln.Addr().String() }

// Health reports the cluster's serving state for the admin plane's
// /healthz: OK only when every seat was sealed once, the frontend is
// open, and every seat is present. Absent seats carry their last
// loss cause. Wire it into an admin endpoint as obs.AdminOptions.Health.
func (f *Frontend) Health() obs.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return obs.Health{Detail: "frontend closed"}
	}
	if f.sealed < f.k {
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

// Serve runs the session: it accepts connections until Close, and a
// connection's first frame decides its role — KindRegister makes it a node
// taking a seat (join), KindQueryTagged a client; any other first frame
// closes it. The first frame is due within handshakeTimeout, and Close
// closes a connection still waiting for it, so a peer that never sends one
// holds nothing. Clients are answered once every seat has been sealed once.
// Serve blocks for the life of the session; run it on its own goroutine.
// It returns the error that failed the first fill, or nil after Close.
func (f *Frontend) Serve() error {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			if !f.closed.Load() {
				// The listener died on its own (Close fails the session
				// itself); an unfinished first fill cannot complete.
				f.mu.Lock()
				f.failLocked(fmt.Errorf("tcp: frontend accept: %w", err))
				f.mu.Unlock()
			}
			break
		}
		conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		go func() {
			if !f.track(conn) {
				conn.Close()
				return
			}
			payload, err := wire.ReadFrame(conn)
			conn.SetReadDeadline(time.Time{})
			var kind wire.Kind // no kind when the first frame never came
			if err == nil {
				kind = wire.NewReader(payload).Kind()
			}
			if kind != wire.KindQueryTagged {
				// Only a client stays in conns; a joiner's connection becomes
				// a seat's, which Close releases with the seats.
				f.untrack(conn)
			}
			switch kind {
			case wire.KindRegister:
				f.join(conn)
			case wire.KindQueryTagged:
				f.serveClient(conn, payload)
			default:
				conn.Close()
			}
		}()
	}
	if f.closed.Load() {
		return nil
	}
	<-f.ready
	return f.readyErr
}

// failLocked fails a session whose first fill has not completed; it is a
// no-op once the fill completed or failed. It releases every node, seated
// or mid-handshake — a resident node blocked on its control connection
// exits on EOF — and the listener, so a failed session neither strands the
// cluster nor keeps the port bound after Serve returns. Callers hold f.mu.
func (f *Frontend) failLocked(err error) {
	if f.sealed == f.k || f.readyErr != nil {
		return
	}
	for _, s := range f.slots {
		if s.conn != nil {
			s.conn.Close()
			s.conn = nil
		}
	}
	f.readyErr = err
	f.ln.Close()
	close(f.ready)
}

// readReady reads seat id's ready report off its control connection: one
// KindReady frame, which carries the shard's metric-index summary. A
// KindError frame in its place — the node's setup failed — comes back as an
// error carrying the node's message.
func readReady(conn net.Conn, id int) (wire.Ready, error) {
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return wire.Ready{}, fmt.Errorf("tcp: frontend read ready from node %d: %w", id, err)
	}
	r := wire.NewReader(payload)
	switch kind := r.Kind(); kind {
	case wire.KindReady:
	case wire.KindError:
		ne, err := wire.DecodeNodeError(r)
		if err != nil {
			return wire.Ready{}, fmt.Errorf("tcp: bad setup error from node %d", id)
		}
		return wire.Ready{}, fmt.Errorf("tcp: node %d failed setup: %s", id, ne.Msg)
	default:
		return wire.Ready{}, fmt.Errorf("tcp: expected ready from node %d, got kind %d", id, kind)
	}
	rdy, err := wire.DecodeReady(r)
	if err != nil {
		return wire.Ready{}, fmt.Errorf("tcp: bad ready from node %d: %w", id, err)
	}
	return rdy, nil
}

// pump reads one node's control frames for one connection incarnation and
// pushes them into the epoch scheduler's collation. A read failure is the
// immediate death signal: the seat is retired on the spot — so a node
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
			f.mu.Lock()
			f.retireLocked(s, gen, fmt.Errorf("lost node %d: %v", s.id, err))
			f.mu.Unlock()
			return
		}
		f.sched.deliver(s, gen, payload)
	}
}

// retireLocked is the one way a seat is lost: it retires connection
// incarnation gen of seat s — marks it absent, closes its connection — and
// fails every epoch in flight on that incarnation, in ordinal order, so
// the client-observable failure order is identical run to run. A stale gen
// (the seat was already re-granted to a re-joined node) or an absent seat
// is a no-op. Callers hold f.mu.
func (f *Frontend) retireLocked(s *feSlot, gen uint64, cause error) {
	if s.gen != gen || !s.present {
		return
	}
	s.present = false
	s.lastLoss = cause
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	sched := f.sched
	epochs := make([]uint64, 0, len(sched.inflight))
	for epoch := range sched.inflight {
		epochs = append(epochs, epoch)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, epoch := range epochs {
		job := sched.inflight[epoch]
		if job.expectMatch(s.id, gen) {
			job.expectClear(s.id)
			job.fail(s.id, fmt.Errorf("lost node %d mid-query: %v", s.id, cause))
			sched.maybeFinishLocked(job)
		}
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
	defer f.mu.Unlock()
	s := f.slots[id]
	if !s.present {
		return fmt.Errorf("tcp: evict: node %d is not present", id)
	}
	f.retireLocked(s, s.gen, fmt.Errorf("node %d evicted", id))
	return nil
}

// join runs the one join handshake, at bring-up and after churn alike:
// grant the lowest free seat, send the Assign, read the node's ready report,
// vet it against the session, and seal the seat. f.mu is held only to grant
// and to vet and seal — never across the handshake's network I/O, which
// runs under handshakeTimeout — so a slow (or hostile) joiner cannot stall
// queries, degraded replies, Close or evictions, and shard loads run in
// parallel. The granted seat stays absent until the seal, so no wave is
// dispatched to it before its node is ready. Until the first fill completes
// a failed handshake fails the session; after that it is denied and the
// seat stays free.
func (f *Frontend) join(conn net.Conn) {
	deny := func(msg string) {
		conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
		_ = wire.WriteFrame(conn, wire.EncodeNodeError(wire.NodeError{Msg: msg}))
		conn.Close()
	}
	f.mu.Lock()
	var slot *feSlot
	for _, s := range f.slots {
		if s.conn == nil {
			slot = s
			break
		}
	}
	switch {
	case f.closed.Load():
		f.mu.Unlock()
		conn.Close()
		return
	case f.readyErr != nil:
		f.mu.Unlock()
		deny(fmt.Sprintf("session failed: %v", f.readyErr))
		return
	case slot == nil:
		f.mu.Unlock()
		deny("no absent seat to re-join (cluster is full)")
		return
	}
	slot.conn = conn
	f.mu.Unlock()

	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	err := wire.WriteFrame(conn, wire.EncodeAssign(wire.Assign{ID: slot.id, K: f.k}))
	var rdy wire.Ready
	if err == nil {
		// The node now builds its shard; its ready report seals the seat.
		rdy, err = readReady(conn, slot.id)
	}
	conn.SetDeadline(time.Time{})

	f.mu.Lock()
	if slot.conn != conn || f.closed.Load() {
		// Close (or a failed first fill) released the handshake; a Close
		// still on its way to f.mu closes conn with the other seats.
		f.mu.Unlock()
		return
	}
	if err == nil {
		err = f.vetLocked(slot, rdy)
	}
	if err != nil && f.sealed < f.k {
		f.failLocked(err)
		f.mu.Unlock()
		return
	}
	if err != nil {
		slot.conn = nil
		f.mu.Unlock()
		deny(err.Error())
		return
	}
	if slot.gen == 0 {
		if f.sealed == 0 {
			f.tag = rdy.PointTag
		}
		slot.shardLen, slot.summary = rdy.ShardLen, rdy.Summary
		f.total += rdy.ShardLen
		f.sealed++
		if f.sealed == f.k {
			f.captureGeometryLocked()
			close(f.ready)
		}
	}
	slot.gen++
	slot.present = true
	slot.lastLoss = nil
	go f.pump(slot, slot.gen, conn)
	f.mu.Unlock()
}

// vetLocked checks a ready report for seat s against the session: every
// seat serves the point tag of the first seal, a first holder's shard must
// not overflow the global point count, and a later holder must reproduce
// the first holder's shard length and metric summary bit-for-bit —
// otherwise the frontend's ℓ validation and pruning geometry would silently
// diverge from the node's data. Which free seat a node takes never changes
// an answer: every shard is a pure function of (id, k). Callers hold f.mu.
func (f *Frontend) vetLocked(s *feSlot, rdy wire.Ready) error {
	switch {
	case f.sealed > 0 && rdy.PointTag != f.tag:
		return fmt.Errorf("tcp: node %d serves point tag %d, the cluster serves %d", s.id, rdy.PointTag, f.tag)
	case s.gen == 0 && rdy.ShardLen > math.MaxInt64-f.total:
		return fmt.Errorf("tcp: node %d's shard of %d points overflows the global point count", s.id, rdy.ShardLen)
	case s.gen > 0 && rdy.ShardLen != s.shardLen:
		return fmt.Errorf("shard of %d points, seat %d held %d — rebuilt data must match", rdy.ShardLen, s.id, s.shardLen)
	case s.gen > 0 && (rdy.Summary.Has != s.summary.Has ||
		math.Float64bits(rdy.Summary.Radius) != math.Float64bits(s.summary.Radius) ||
		!bytes.Equal(rdy.Summary.Center, s.summary.Center)):
		return fmt.Errorf("metric summary differs from the one seat %d held — rebuilt data must match", s.id)
	}
	return nil
}

// captureGeometryLocked pins the pruning geometry when the first fill
// completes: every seat's radius and centre, or nothing when no pruner is
// configured or any seat reported no usable summary — then every query
// takes full scatter. Presence does not matter here: an absent seat only
// blocks the pruned queries whose ball reaches its shard (dispatchWave
// checks per wave). Callers hold f.mu.
func (f *Frontend) captureGeometryLocked() {
	if f.pruner == nil {
		return
	}
	radius := make([]float64, f.k)
	center := make([][]byte, f.k)
	for i, s := range f.slots {
		if !s.summary.Has {
			return
		}
		radius[i], center[i] = s.summary.Radius, s.summary.Center
	}
	f.radius, f.center = radius, center
}

// Leader is kept only for existing callers: the frontend selects every
// answer itself and no seat leads anything. It returns -1 until every seat
// has been sealed once, and 0 after — seat 0, the first term of the
// Regress fold's ascending seat order.
func (f *Frontend) Leader() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed < f.k {
		return -1
	}
	return 0
}

// Close ends the session: it stops accepting connections, fails every
// queued and in-flight query epoch with a retryable error, asks every node
// to shut down, and releases the control and client connections and every
// connection still owing its first frame. A coalescing bucket still open
// fails the same way when it flushes, at most Linger later. The nodes drain
// their in-flight dispatches before they return. Close also closes the
// connection of every join handshake in progress; a Close before every seat
// was sealed once fails the session, and Serve returns nil. Safe to call
// more than once.
func (f *Frontend) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := f.ln.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	// In-flight collation jobs answer their clients with the retryable
	// closing reply; the control pumps, which see the connections below
	// drop once f.mu is free, find no job left to fail as degraded.
	f.sched.shutdownLocked()
	f.failLocked(errors.New("tcp: frontend closed during setup"))
	for _, s := range f.slots {
		if s.conn == nil {
			continue
		}
		if s.present {
			// The shutdown frame is a courtesy (the connection closes
			// right below either way): a healthy node's socket buffer
			// takes it instantly, and a wedged one must not hold f.mu
			// hostage, so the write gets a short deadline.
			var w wire.Writer
			w.Kind(wire.KindShutdown)
			s.conn.SetWriteDeadline(time.Now().Add(time.Second))
			//knnlint:allow lockio -- courtesy shutdown frame under a 1s write deadline; a wedged node cannot hold f.mu
			_ = wire.WriteFrame(s.conn, w.Bytes())
		}
		s.conn.Close()
		s.conn = nil
	}
	// Unblock the goroutines parked in ReadFrame — clients, and connections
	// still owing their first frame — so a long-lived process reclaims their
	// goroutines and sockets.
	//knnlint:allow detsource -- closing every accepted conn; close order is unobservable
	for conn := range f.conns {
		conn.Close()
	}
	f.conns = nil
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
	defer f.untrack(conn)
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
		if err == nil {
			err = r.End()
		}
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
	// A node's result holds at most ℓ items per point it was sent, and the
	// reply at most ℓ per point of the batch: one check keeps both inside a
	// frame, so no node can fail to send its result or the client miss its
	// reply.
	if !wire.ItemsFit(len(q.Points), q.L) {
		return wire.Reply{Err: fmt.Sprintf("batch of %d points at l=%d exceeds one frame of %d bytes", len(q.Points), q.L, wire.MaxFrame)}
	}
	return f.sched.submit(q)
}

// degradedLocked builds the retryable degraded reply naming the absent
// seats among need, or returns ok=true when all of them are filled.
func (f *Frontend) degradedLocked(need []*feSlot) (wire.Reply, bool) {
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
