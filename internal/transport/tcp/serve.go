// Package tcp serves k-NN queries over real TCP sockets: a frontend that
// seats k resident nodes through one join handshake and answers remote
// clients, the nodes that hold the shards, and the client that speaks the
// query/reply half of the protocol.
//
// The frontend is the hub of a star of control connections, and the only
// party that selects: every query is answered by one or two dispatch waves
// (the frontend sends each contacted node the points it must answer, and
// each node returns its local top-ℓ for them, straight from its shard) and
// one fold at the frontend, which merges the winner lists, cuts them to ℓ
// and folds a Classify or Regress label from each seat's share. Nodes never
// talk to each other. This is the paper's SimpleKNN with the frontend in the
// leader's seat; the paper's own protocols (Algorithm 2 and its baselines)
// run on the in-process k-machine simulator, where their round and message
// bounds are measured. See scheduler.go and docs/PROTOCOL.md.
package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"distknn/internal/keys"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// handshakeTimeout bounds the blocking network steps of the frontend's join
// handshake, so a wedged joiner cannot pin a seat forever.
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

// Handler is the per-node logic a resident node runs: one Load call once
// the node holds its seat — at bring-up and on a re-join alike — then one
// Direct call per point of every dispatch it is sent.
//
// Direct calls run concurrently on one receiver: the frontend pipelines
// dispatches, and the node answers each on its own goroutine.
// Implementations must therefore keep per-call state local and treat state
// written in Load (the shard, its index) as read-only during queries. A
// Handler instance belongs to one node.
type Handler interface {
	// Load builds the shard of seat id of k. It runs locally, before the
	// node reports ready, and returns the ready report the node sends: the
	// shard size (the frontend sums the shards to validate ℓ against the
	// global point count), the point encoding the shard understands (the
	// frontend rejects mismatched queries) and the shard's metric-index
	// summary (a zero summary disables pruned dispatch for the session).
	Load(id, k int) (wire.Ready, error)
	// Direct answers point qi of a dispatch: the node's local top-ℓ
	// winners in ascending key order, straight from its shard — the
	// frontend merges the shares of the contacted nodes itself. Only keys
	// strictly below ceil may be returned: it is keys.MaxKey on a
	// full-scatter or probe wave and the point's probe bound on a gather
	// wave.
	Direct(q wire.Query, qi int, ceil keys.Key) ([]points.Item, error)
}

// ServeNodeObserved joins the serving cluster at the frontend's address and
// stays resident: it loads its shard through h.Load, reports readiness, and
// then answers every dispatch until the frontend shuts the session down
// (clean return). It is the one node entry point; the node's serve-loop
// telemetry (epochs served, control-plane frame bytes, pool traffic — see
// metrics.go for the instrument names) is bound to reg, and a nil reg
// records into a private registry. A node binds no listener and dials only
// the frontend.
//
// The join path is the same at bring-up and on a re-join: if a seat of a
// running session is absent (its node died or was evicted), the node takes
// over the lowest free seat and resumes serving — so a freshly started
// process heals a degraded cluster with no extra flags.
//
// Failure handling: a dispatch whose handler fails is reported to the
// frontend and serving continues; only the loss of the control connection
// itself ends the session, with an error matching ErrSessionLost so callers
// can re-join (see cmd/knnnode -rejoin).
func ServeNodeObserved(coordAddr string, reg *obs.Registry, h Handler) error {
	return serveNode(coordAddr, h, nil, reg)
}

// nodeSession holds one resident node's control connection so in-package
// tests can simulate an abrupt crash: kill closes it mid-flight, with no
// shutdown frame, exactly like a killed process.
type nodeSession struct {
	id    int
	coord net.Conn
}

func (s *nodeSession) kill() { s.coord.Close() }

func serveNode(coordAddr string, h Handler, hook func(*nodeSession), reg *obs.Registry) error {
	nm := newNodeMetrics(reg)
	coord, a, err := joinServe(coordAddr)
	if err != nil {
		return err
	}
	defer coord.Close()
	if hook != nil {
		hook(&nodeSession{id: a.ID, coord: coord})
	}

	rdy, err := h.Load(a.ID, a.K)
	if err != nil {
		_ = wire.WriteFrame(coord, wire.EncodeNodeError(wire.NodeError{Msg: err.Error()}))
		return fmt.Errorf("tcp: node %d load: %w", a.ID, err)
	}
	// The ready report carries the shard's metric-index summary, so the
	// frontend has current centroid/radius geometry for each seated
	// incarnation before it serves queries on it.
	var ready wire.Writer
	wire.AppendReady(&ready, rdy)
	if err := wire.WriteFrame(coord, ready.Bytes()); err != nil {
		return fmt.Errorf("tcp: node %d ready: %w (%v)", a.ID, ErrSessionLost, err)
	}

	// Dispatches are answered concurrently — the frontend's scheduler
	// pipelines up to its window of queries, and each dispatch runs on its
	// own goroutine. Control-connection writes (results, error reports) are
	// serialized; a failed control write closes the connection, which
	// surfaces as a session loss at the read loop. In-flight dispatches are
	// drained before the node returns.
	var ctrlMu sync.Mutex
	// report ends one dispatch on the control connection: the node's
	// result, or — when err is set — the failure report. The pooled writer
	// is checked out and released here, so its ownership is provable
	// function-locally (knnlint poolown).
	report := func(epoch uint64, nr wire.NodeResult, err error) {
		w := wire.GetWriter()
		w.BeginFrame()
		if err != nil {
			nm.epochErrors.Inc()
			wire.AppendNodeError(w, wire.NodeError{Epoch: epoch, Msg: err.Error()})
		} else {
			nm.epochsServed.Inc()
			wire.AppendNodeResult(w, nr)
		}
		// The frame is counted before it is written: once the frontend has
		// the result it may answer its client, and a counter bumped after
		// the write could still miss a reply the client already holds. A
		// failed write ends the session, so its count is never relied on.
		nm.ctrlOut.Add(int64(len(w.Bytes()))) // header placeholder + payload
		ctrlMu.Lock()
		//knnlint:allow lockio -- ctrlMu exists to serialize exactly this control write; no other state hides behind it
		werr := w.EndFrame(coord)
		ctrlMu.Unlock()
		if werr != nil {
			coord.Close()
		}
		wire.PutWriter(w)
	}
	var epochs sync.WaitGroup
	defer epochs.Wait()

	for {
		// Dispatch frames are read into pooled buffers: the decoded query's
		// points alias the frame, so the buffer is handed to the dispatch's
		// goroutine and returned once it is done with the query.
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
		case wire.KindDispatchDirect:
			// The node answers straight from its shard, for exactly the
			// points the frame carries — the whole client batch or the
			// sub-batch the frontend's admission test left for it — and, on
			// a gather wave, only below each point's bound.
			epoch := r.Varint()
			q, err := wire.DecodeQuery(r)
			var bounds []keys.Key
			if err == nil {
				bounds, err = wire.DecodeBounds(r, len(q.Points))
			}
			if err != nil {
				return fmt.Errorf("tcp: node %d bad dispatch: %w", a.ID, err)
			}
			epochs.Add(1)
			go func() {
				defer epochs.Done()
				nr, err := answerDispatch(epoch, q, bounds, h, a.ID)
				report(epoch, nr, err)
				wire.PutFrameBuf(payload)
			}()
		default:
			return fmt.Errorf("tcp: node %d got unexpected control kind %d", a.ID, kind)
		}
	}
}

// answerDispatch answers one dispatch: the node's local top-ℓ winners per
// query point, each strictly below the point's bound when the frame
// carried bounds. A failed point fails the dispatch with a recoverable
// error.
func answerDispatch(epoch uint64, q wire.Query, bounds []keys.Key, h Handler, id int) (wire.NodeResult, error) {
	nr := wire.NodeResult{Epoch: epoch, Node: id, Queries: make([]wire.NodeQueryResult, len(q.Points))}
	for qi := range q.Points {
		ceil := keys.MaxKey
		if bounds != nil {
			ceil = bounds[qi]
		}
		w, err := h.Direct(q, qi, ceil)
		if err != nil {
			return wire.NodeResult{}, err
		}
		nr.Queries[qi].Winners = w
	}
	return nr, nil
}

// joinServe registers with the frontend and decodes its Assign grant of the
// lowest free seat.
func joinServe(coordAddr string) (net.Conn, wire.Assign, error) {
	coord, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return nil, wire.Assign{}, fmt.Errorf("tcp: dial coordinator: %w", err)
	}
	fail := func(err error) (net.Conn, wire.Assign, error) {
		coord.Close()
		return nil, wire.Assign{}, err
	}
	if err := wire.WriteFrame(coord, []byte{byte(wire.KindRegister)}); err != nil {
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
