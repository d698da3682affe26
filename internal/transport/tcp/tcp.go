// Package tcp runs k-machine programs over real TCP sockets: one process (or
// goroutine) per machine, a star of connections around the session leader,
// and a frontend that seats the nodes (ID assignment and address exchange)
// through one join handshake.
//
// The synchronous-round semantics match the in-process simulator exactly:
// messages sent in round r are delivered at the start of round r+1. Rounds
// are implemented BSP-style — at the end of each round a node sends exactly
// one frame (possibly empty) along each of its live links and waits for one
// frame back on each, so no global barrier service is needed. The mesh is a
// star: every party computes the leader from the session seed
// (election.Leader), a worker links to the leader only and the leader to
// every worker, so an epoch costs 2(k−1) frames a round. A socket has no
// per-round byte cap, so the mesh does not stagger messages the way the
// simulator's links do; instead every program sees one link budget,
// linkBudget, as its Env's Bandwidth, and the protocols keep what they send
// within it wherever their round count depends on it. A simulator run at
// BandwidthBytes = linkBudget, where every message fits it, therefore
// matches a socket epoch round for round, and with the same seed the two
// runtimes execute bit-identical protocol decisions.
//
// A node that finishes marks its final frame with a halt flag; peers stop
// expecting frames from it. A node that fails sends an error flag along its
// links, which aborts the receivers' runs; the leader's own abort
// carries a worker's failure on to the other workers.
//
// There is one deployment style, the resident session (Frontend,
// ServeNodeObserved, ServeLocalOptions, Client), the socket counterpart of
// the in-process simulator: the nodes stay resident after rendezvous and
// execute one BSP epoch per query dispatched by the frontend, which also answers remote clients. Each
// epoch is an isolated run on the standing mesh — fresh round numbering,
// fresh per-epoch randomness derived from the session seed — so a serving
// cluster is deterministic per (seed, query stream) exactly like the
// simulator. The frontend's epoch scheduler may keep several epochs in
// flight at once (see scheduler.go); every mesh frame is epoch-tagged and
// each peer link demultiplexes arriving frames per epoch, so concurrent
// epochs share the standing connections without ever observing each other.
// See serve.go and docs/PROTOCOL.md.
package tcp

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"

	"distknn/internal/kmachine"
	"distknn/internal/wire"
)

// Frame flags.
const (
	flagData = iota
	flagHalt
	flagErr
)

// linkBudget is B on the mesh: the bytes a protocol may put in one message
// (MessageOverheadBytes included) and still count it as one round, which is
// what kmachine.Env.Bandwidth reports to every program on a socket. A socket
// carries any size in one frame; the budget is where a round stops being
// cheap. BenchmarkStarRoundBytes times a k = 4 star round against the
// workers' message size; on a shared 2-core box, medians of eight runs:
// 77 µs at 64 B, 66 µs at 4 KiB, 76 µs at 8 KiB, 87 µs at 16 KiB and 181 µs
// at 64 KiB (fastest runs 56, 60, 61, 80 and 168 µs). Up to 8 KiB a round
// costs what an empty one does, and 8 KiB keeps a full batch frame —
// wire.MaxBatch lanes each sending one budget-sized message — under
// wire.MaxFrame, which 16 KiB would not (TestLinkBudgetFitsABatchFrame).
const linkBudget = 8 << 10

// Per-link budgets for the epoch demultiplexer. A well-behaved peer can have
// at most a couple of frames outstanding per epoch (BSP lockstep allows one
// unread data frame plus the final halt frame), and at most one early frame
// per epoch this node has not started yet (bounded by the frontend's window);
// a peer exceeding these is desynchronized or hostile and loses the link.
const (
	// subChanCap buffers one epoch's delivered frames.
	subChanCap = 8
	// stashEpochCap bounds the stashed frames of one not-yet-started epoch.
	stashEpochCap = 4
	// stashTotalCap bounds all stashed frames on one link.
	stashTotalCap = 256
)

// Metrics counts a node's local view of the run.
type Metrics struct {
	Rounds   int
	Messages int64 // protocol messages sent (not frames)
	Bytes    int64 // payload bytes sent
	Frames   int64 // round frames written, halt and error frames included; transport-only, no simulator twin
}

// transportError marks failures of the mesh itself — a lost connection, a
// corrupt or out-of-order frame — as opposed to a program deciding to fail.
// A resident serving node treats a program error as "this epoch failed, keep
// serving" but a transport error as "my mesh is broken": it reports the
// failure to the frontend with the fatal bit (naming the lost peer when it
// can) and keeps its seat, waiting for the implicated node to re-join.
type transportError struct {
	err  error
	peer int // machine whose link failed; -1 when not attributable
}

// transportFault wraps err as a mesh failure implicating machine peer
// (-1 when no single peer is to blame).
func transportFault(peer int, err error) transportError {
	return transportError{err: err, peer: peer}
}

func (e transportError) Error() string { return e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

// IsTransportError reports whether err (or anything it wraps) signals a
// broken mesh rather than a failed program.
func IsTransportError(err error) bool {
	var te transportError
	return errors.As(err, &te)
}

// LostPeer returns the machine index a transport error implicates, or -1
// when err is not a transport error or no single peer could be blamed.
func LostPeer(err error) int {
	var te transportError
	if errors.As(err, &te) {
		return te.peer
	}
	return -1
}

// errPeerAbort marks an epoch ended by a peer's error frame: the failure
// originated elsewhere, this node only observed it. The serving path uses
// it to report the originating node's message to the client instead of k−1
// "aborted by peer" echoes.
var errPeerAbort = errors.New("aborted by peer")

// frame is one per-round unit from one peer. epoch identifies which BSP
// epoch of a resident mesh the frame belongs to; the peer link's
// demultiplexer routes each frame to the matching epoch's feed, so any
// number of concurrently pipelined epochs can share the link.
type frame struct {
	flag  byte
	epoch uint64
	round uint64
	msgs  []laneMsg
}

// peer is one mesh connection plus its demultiplexing reader. Frames are
// routed per epoch: an epoch run subscribes before its first exchange and
// receives exactly its own frames on a private feed. Frames for epochs this
// node has not started yet (the peer read its dispatch earlier) are stashed
// until the subscription arrives; leftovers of completed epochs (final halt
// frames nobody reads) are dropped. A read failure closes every live feed —
// subscribers observe it as a channel close — and poisons the link for
// future subscriptions.
type peer struct {
	conn net.Conn
	// acked is closed when the acceptor's handshake ack (a zero-length
	// frame) arrives. Only the dialing side of a link gets one; it is nil on
	// an accepted link, where a zero-length frame is a framing error.
	acked chan struct{}
	down  chan struct{} // closed when the link fails; cause() says why

	mu      sync.Mutex
	subs    map[uint64]chan frame
	stash   map[uint64][]frame
	nstash  int
	everSub bool   // at least one epoch has been subscribed
	maxSub  uint64 // highest epoch ever subscribed; subscriptions are monotonic
	err     error  // sticky read/routing failure
}

// newPeer wraps one mesh connection and starts its reader. dialed marks the
// side that sent the hello and is owed the ack.
func newPeer(conn net.Conn, dialed bool) *peer {
	p := &peer{
		conn:  conn,
		down:  make(chan struct{}),
		subs:  make(map[uint64]chan frame),
		stash: make(map[uint64][]frame),
	}
	if dialed {
		p.acked = make(chan struct{})
	}
	go p.readLoop()
	return p
}

// readLoop pumps frames off the connection and routes them per epoch until
// the link dies.
func (p *peer) readLoop() {
	// One buffer for the life of the link: parseRoundFrame copies every
	// message payload out of the frame, so the frame bytes are dead the
	// moment it returns and the next read may overwrite them.
	var buf []byte
	acked := p.acked == nil
	for {
		payload, err := wire.ReadFrameInto(p.conn, buf)
		buf = payload
		if err != nil {
			p.fail(err)
			// Close our end too: a framing error (as opposed to a dead
			// socket) leaves a TCP-healthy but poisoned link that nothing
			// else would ever close — the remote must see it drop.
			p.conn.Close()
			return
		}
		if len(payload) == 0 && !acked {
			// The handshake ack, exactly once. The acceptor publishes the
			// link before it acks, so round frames of its own epochs may
			// arrive first; they are routed below like any others.
			acked = true
			close(p.acked)
			continue
		}
		f, err := parseRoundFrame(payload)
		if err != nil {
			p.fail(err)
			p.conn.Close()
			return
		}
		if !p.route(f) {
			p.fail(fmt.Errorf("tcp: peer flooded the epoch demultiplexer"))
			p.conn.Close()
			return
		}
	}
}

// route delivers one frame to its epoch's feed, stashes it for an epoch not
// yet subscribed, or drops a completed epoch's leftover. It reports false
// when the peer exceeded a demultiplexer budget (a protocol violation).
func (p *peer) route(f frame) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return true // link already failed; the frame is moot
	}
	if ch, ok := p.subs[f.epoch]; ok {
		select {
		case ch <- f:
			return true
		default:
			return false // feed overflow: the peer is rounds ahead of lockstep
		}
	}
	if !p.everSub || f.epoch > p.maxSub {
		if len(p.stash[f.epoch]) >= stashEpochCap || p.nstash >= stashTotalCap {
			return false
		}
		p.stash[f.epoch] = append(p.stash[f.epoch], f)
		p.nstash++
		return true
	}
	return true // leftover of a completed (previously subscribed) epoch
}

// subscribe opens this link's frame feed for one epoch, delivering any
// frames the peer sent before this node started the epoch. Subscriptions
// must be opened in increasing epoch order (the serving dispatch loop and
// the frontend's ordinal assignment guarantee it); stashed frames of epochs
// below the new subscription can never be claimed and are pruned.
func (p *peer) subscribe(epoch uint64) (chan frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil, p.err
	}
	ch := make(chan frame, subChanCap)
	for _, f := range p.stash[epoch] {
		//knnlint:allow lockio -- replays at most subChanCap stashed frames into a fresh cap-subChanCap channel; cannot block
		ch <- f
	}
	p.nstash -= len(p.stash[epoch])
	delete(p.stash, epoch)
	//knnlint:allow detsource -- prunes every stale epoch's stash; deletion order is unobservable
	for e, fs := range p.stash {
		if e < epoch {
			p.nstash -= len(fs)
			delete(p.stash, e)
		}
	}
	p.subs[epoch] = ch
	if !p.everSub || epoch > p.maxSub {
		p.everSub = true
		p.maxSub = epoch
	}
	return ch, nil
}

// unsubscribe retires one epoch's feed; later frames for it are dropped.
func (p *peer) unsubscribe(epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subs, epoch)
}

// fail poisons the link: every live feed is closed (subscribers observe the
// loss as a channel close) and future subscriptions are refused.
func (p *peer) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	p.err = err
	close(p.down)
	//knnlint:allow detsource -- poison fanout: every live feed closes; order is unobservable
	for e, ch := range p.subs {
		close(ch)
		delete(p.subs, e)
	}
	p.stash = make(map[uint64][]frame)
	p.nstash = 0
}

// cause returns why the link failed (nil while it is healthy).
func (p *peer) cause() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Node owns one machine's standing mesh: the star links, the session
// identity, and the bookkeeping shared by every epoch that runs on the
// mesh. Per-epoch execution state lives in epochRun — a Node can have any
// number of epochs in flight at once, which is what lets the frontend's
// scheduler pipeline query epochs over one mesh.
type Node struct {
	id, k, leader int

	// peers is indexed by machine id; only star links are ever installed
	// (neighbour). The mesh mutates it — links of lost peers are dropped,
	// and the mesh accept loop installs replacement links when a peer
	// re-joins — so every access goes through peersMu. A nil neighbour
	// entry means "link down, waiting for re-join".
	peersMu sync.Mutex
	peers   []*peer
}

// neighbour reports whether the star links this node to machine j: a worker
// to the leader, the leader to every worker.
func (n *Node) neighbour(j int) bool {
	return j != n.id && (n.id == n.leader || j == n.leader)
}

// installPeer replaces machine j's mesh link with conn (closing any prior
// link, whose feeds then close) and starts the new link's demultiplexing
// reader. The mesh accept loop calls it for accepted links, dialPeer (dialed
// true) for the links this node opened.
func (n *Node) installPeer(j int, conn net.Conn, dialed bool) *peer {
	p := newPeer(conn, dialed)
	n.peersMu.Lock()
	old := n.peers[j]
	n.peers[j] = p
	n.peersMu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	return p
}

// dropPeer closes and forgets machine j's link — but only if it is still
// the link that failed; a replacement installed concurrently must win.
func (n *Node) dropPeer(j int, p *peer) {
	if p == nil {
		return
	}
	n.peersMu.Lock()
	if n.peers[j] == p {
		n.peers[j] = nil
	}
	n.peersMu.Unlock()
	p.conn.Close()
}

// peerSnapshot returns a consistent view of the mesh links. An epoch pins
// its snapshot for its whole run: a link replaced mid-epoch fails only that
// epoch (the replacement closes the old socket, whose feeds then close),
// and the next epoch starts on the fresh links.
func (n *Node) peerSnapshot() []*peer {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	return append([]*peer(nil), n.peers...)
}

// closePeers shuts every mesh connection.
func (n *Node) closePeers() {
	for _, p := range n.peerSnapshot() {
		if p != nil {
			p.conn.Close()
		}
	}
}

// newNode builds the mesh owner of seat id in a star around leader with
// every link down; the mesh accept loop and dialPeer install them.
func newNode(id, k, leader int) *Node {
	return &Node{id: id, k: k, leader: leader, peers: make([]*peer, k)}
}

// laneMsg is one protocol message on the wire: the payload and the lane
// (program index within the epoch) it belongs to. The lane is transport
// framing — it is not charged to Metrics.
type laneMsg struct {
	lane    int
	payload []byte
}

// epochRun is the physical round layer of one isolated BSP epoch on the
// standing mesh: its own round numbering, per-peer outbox,
// frame feeds, halt/error frames and metrics, plus the barrier its lanes
// (batch.go) meet at — the last active lane to arrive performs the round
// exchange for all of them. Any number of epochRuns may be in flight on one
// Node concurrently — each subscribed its own per-epoch frame feed on every
// peer link, so the runs never observe each other's traffic.
type epochRun struct {
	n     *Node
	epoch uint64
	seed  uint64

	peers  []*peer        // pinned link snapshot for this epoch
	feeds  []<-chan frame // per-peer frame feed (nil off the star)
	halted []bool         // peers that sent their final frame this epoch

	// Everything below is guarded by mu once run has started the lanes.
	mu   sync.Mutex
	cond *sync.Cond

	round   int
	outbox  [][]laneMsg // per-peer messages queued this round; reused every round
	errs    []error     // per-peer write errors of the last send
	metrics Metrics

	active  int                  // lanes still running
	waiting int                  // lanes parked at the round barrier
	gen     uint64               // completed exchanges; a parked lane waits for it to move
	err     error                // sticky epoch failure; wakes and aborts every lane
	inbox   [][]kmachine.Message // per-lane deliveries of the last exchange
}

// beginEpoch pins the current mesh and subscribes the epoch's frame feeds,
// one per star link. The epoch ordinal must be strictly greater than any
// previously begun ordinal on this node (the demultiplexer's stash pruning
// relies on it); epochSeed is derived by the caller from the session seed.
// It fails with a transport error naming the lowest absent or broken star
// link, so a serving node never starts an epoch on an incomplete star.
func (n *Node) beginEpoch(epoch, epochSeed uint64) (*epochRun, error) {
	er := &epochRun{
		n:      n,
		epoch:  epoch,
		seed:   epochSeed,
		outbox: make([][]laneMsg, n.k),
		errs:   make([]error, n.k),
		peers:  n.peerSnapshot(),
		feeds:  make([]<-chan frame, n.k),
		halted: make([]bool, n.k),
	}
	er.cond = sync.NewCond(&er.mu)
	for j, p := range er.peers {
		if !n.neighbour(j) {
			continue
		}
		if p == nil {
			er.release()
			return nil, transportFault(j, fmt.Errorf("tcp: node %d mesh link to %d is down", n.id, j))
		}
		ch, err := p.subscribe(epoch)
		if err != nil {
			er.release()
			return nil, transportFault(j, fmt.Errorf("tcp: node %d mesh link to %d is broken: %w", n.id, j, err))
		}
		er.feeds[j] = ch
	}
	return er, nil
}

// release retires the epoch's frame feeds; stale frames for it (a peer's
// final halt frames) are dropped by the demultiplexer from here on.
func (er *epochRun) release() {
	for j, p := range er.peers {
		if er.feeds[j] != nil {
			p.unsubscribe(er.epoch)
		}
	}
}

// live reports whether peer j still exchanges frames in this epoch.
func (er *epochRun) live(j int) bool {
	return er.feeds[j] != nil && !er.halted[j]
}

// send writes this round's frame (with the given flag) to every live peer,
// in peer order, on the calling goroutine, recording each write's error in
// er.errs and emptying the outbox for reuse (writeRoundFrame serializes
// synchronously, so nothing keeps the slices). Messages queued for a peer
// that is no longer live are dropped, as the simulator drops messages to a
// halted machine.
//
// Writing inline before reading cannot deadlock against a peer doing the
// same: every link's readLoop drains its socket without ever blocking —
// route never waits (a full feed or stash fails the link instead) — so a
// write only ever waits for the peer's kernel, never for the peer's epoch.
func (er *epochRun) send(flag byte) {
	round := uint64(er.round)
	for j := range er.peers {
		er.errs[j] = nil
		if er.live(j) {
			er.errs[j] = writeRoundFrame(er.peers[j].conn, flag, er.epoch, round, er.outbox[j])
			er.metrics.Frames++
		}
		er.outbox[j] = er.outbox[j][:0]
	}
}

// exchange is one physical round: it writes this round's data frame to every
// live peer, then reads one frame from each, files the delivered messages
// under their lanes (ascending sender within a lane) and advances the round.
// A worker's round therefore ends when the leader's frame arrives. A lost
// link, an out-of-step frame or a message for a lane this epoch does not
// have is a transport fault naming the peer; a peer's error frame ends the
// epoch with errPeerAbort.
func (er *epochRun) exchange() error {
	n := er.n
	er.send(flagData)
	var remoteErr error
	for j := range er.peers {
		if !er.live(j) {
			continue
		}
		f, ok := <-er.feeds[j]
		if !ok {
			n.dropPeer(j, er.peers[j])
			remoteErr = transportFault(j, fmt.Errorf("tcp: node %d lost peer %d: %v", n.id, j, er.peers[j].cause()))
			continue
		}
		if f.flag == flagErr {
			// An error frame is an epoch-level abort, valid at any round:
			// the peer failed at a different round than ours, or refused
			// the epoch before running a single round (abortEpoch). The
			// link itself is healthy — only this epoch dies.
			remoteErr = fmt.Errorf("tcp: node %d %w %d", n.id, errPeerAbort, j)
			continue
		}
		if f.round != uint64(er.round) {
			n.dropPeer(j, er.peers[j])
			remoteErr = transportFault(j, fmt.Errorf("tcp: node %d got round %d frame from %d during round %d of epoch %d",
				n.id, f.round, j, er.round, er.epoch))
			continue
		}
		if f.flag == flagHalt {
			er.halted[j] = true
		}
		for _, m := range f.msgs {
			if m.lane >= len(er.inbox) {
				n.dropPeer(j, er.peers[j])
				remoteErr = transportFault(j, fmt.Errorf("tcp: node %d got a message for lane %d from %d in the %d-lane epoch %d",
					n.id, m.lane, j, len(er.inbox), er.epoch))
				break
			}
			er.inbox[m.lane] = append(er.inbox[m.lane], kmachine.Message{From: j, To: n.id, Payload: m.payload})
		}
	}
	if remoteErr != nil {
		return remoteErr
	}
	for j, err := range er.errs {
		// A write race against a peer that halted this very round (it
		// closed its sockets after its halt frame) is benign; any other
		// write failure is a real transport error.
		if err != nil && !er.halted[j] {
			n.dropPeer(j, er.peers[j])
			return transportFault(j, fmt.Errorf("tcp: node %d write to %d: %w", n.id, j, err))
		}
	}
	er.round++
	er.metrics.Rounds = er.round
	return nil
}

// abortEpoch tells every live peer that this node will never run the given
// epoch (beginEpoch refused it — e.g. the leader's link to one worker is
// dead), so a peer that already started the epoch aborts it instead of
// waiting forever for this node's frames. Error frames are epoch-level:
// receivers honor them at any round, and a peer that never starts the epoch
// drops the frame as a leftover.
func (n *Node) abortEpoch(epoch uint64) {
	for _, p := range n.peerSnapshot() {
		if p != nil {
			_ = writeRoundFrame(p.conn, flagErr, epoch, 0, nil)
		}
	}
}

// writeRoundFrame serializes one round frame through a pooled writer. Each
// message travels as Varint(len(lane)+len(payload)), Varint(lane), payload —
// the lane index is framing, the payload is never copied to carry it. The
// frame goes out as a single Write, so concurrent epochs sharing a mesh
// link never interleave frames.
func writeRoundFrame(conn net.Conn, flag byte, epoch, round uint64, msgs []laneMsg) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.BeginFrame()
	w.U8(flag)
	w.Varint(epoch)
	w.Varint(round)
	w.Varint(uint64(len(msgs)))
	for _, m := range msgs {
		w.Varint(uint64(wire.VarintLen(uint64(m.lane)) + len(m.payload)))
		w.Varint(uint64(m.lane))
		w.Raw(m.payload)
	}
	return w.EndFrame(conn)
}

// parseRoundFrame decodes one round frame payload, copying every message out
// of it. It rejects a lane index that does not fit an int; whether the lane
// exists is the receiving epoch's call (exchange), since the frame may
// arrive before that epoch starts.
func parseRoundFrame(payload []byte) (frame, error) {
	r := wire.NewReader(payload)
	f := frame{flag: r.U8(), epoch: r.Varint(), round: r.Varint()}
	count := r.Varint()
	for i := uint64(0); i < count; i++ {
		size := r.Varint()
		rest := r.Remaining()
		if r.Err() != nil || size > uint64(rest) {
			return frame{}, fmt.Errorf("tcp: corrupt frame")
		}
		lane := r.Varint()
		tag := uint64(rest - r.Remaining())
		if r.Err() != nil || tag > size || lane > math.MaxInt {
			return frame{}, fmt.Errorf("tcp: corrupt frame: bad lane index")
		}
		f.msgs = append(f.msgs, laneMsg{lane: int(lane), payload: append([]byte(nil), r.Raw(int(size-tag))...)})
	}
	if r.Err() != nil {
		return frame{}, r.Err()
	}
	return f, nil
}
