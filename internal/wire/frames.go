package wire

import (
	"fmt"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// Control-plane frame kinds. Every frame crossing a rendezvous, serving or
// client connection starts with one of these bytes; the mesh (node↔node)
// frames are the only ones that do not, since the mesh carries exactly one
// frame shape. The full layouts are specified in docs/PROTOCOL.md and
// pinned by golden-byte tests in this package.

// Kind identifies a control-plane frame type. It is a named type (rather
// than a bare byte) so every dispatch site switches on a wire.Kind value,
// which lets the knnlint kindswitch analyzer prove each switch either
// handles all declared kinds or carries an explicit default.
type Kind uint8

const (
	// KindRegister: node → coordinator. Body: String mesh-listen address.
	KindRegister Kind = 1
	// KindAssign: coordinator → node. Body: U8 mode, Varint id, Varint k,
	// U64 seed, then k × String mesh addresses (the address book).
	KindAssign Kind = 2
	// KindReady: node → frontend, once the setup epoch (leader election)
	// has completed. Body: Varint id, Varint leader, Varint shard size,
	// U8 point tag.
	KindReady Kind = 3
	// KindDispatch: frontend → node, one query epoch answering a whole
	// batch. Body: Varint epoch, then a Query body.
	KindDispatch Kind = 4
	// KindResult: node → frontend, one epoch's outcome. Body: NodeResult.
	KindResult Kind = 5
	// KindError: node → frontend, the epoch failed. Body: NodeError —
	// Varint epoch, U8 origin (1 if the failure originated in this node's
	// program), U8 fatal (1 if the node's mesh broke, as opposed to a
	// recoverable program failure), Varint lostPeer+1 (0 when no specific
	// peer was implicated), String message.
	KindError Kind = 6
	// KindShutdown: frontend → node, clean stop. Empty body.
	KindShutdown Kind = 7

	// Kinds 8 and 9 (the untagged client query/reply pair) and 16 (the
	// pruned sub-batch dispatch with an index list) are retired and never
	// reused.

	// KindRejoin: node → frontend, re-register into a running serving
	// session. Body: Varint id+1 (0 asks the frontend to pick any absent
	// slot), String mesh address. The frontend answers with KindRejoinAssign
	// on success or KindError (epoch 0) on rejection.
	KindRejoin Kind = 10
	// KindRejoinAssign: frontend → node, the rejoin grant. Body:
	// RejoinAssign — Varint id, Varint k, U64 seed, Varint leader,
	// Varint epoch (the session's current epoch ordinal), Varint
	// presentCount, presentCount × Varint id (the peers currently serving,
	// which the rejoining node must dial), then k × String mesh addresses.
	KindRejoinAssign Kind = 11
	// KindQueryTagged: client → frontend, one query. Body: Varint tag
	// (client-chosen request id, echoed verbatim in the reply), then a Query
	// body. Queries on one connection may be answered out of order; the tag
	// matches a reply to its query.
	KindQueryTagged Kind = 12
	// KindReplyTagged: frontend → client, the answer to one query. Body:
	// Varint tag, then a Reply body.
	KindReplyTagged Kind = 13
	// KindSummary: node → frontend, the node's metric-index shard summary,
	// sent immediately after every KindReady (both the setup and the
	// re-join handshake). Body: Varint node id, U8 has; if has is 1:
	// F64 radius, then String centroid point bytes (the shard's anchor in
	// the session's point encoding). has 0 means the shard has no metric
	// summary (the point type is not a metric, or the shard is empty) and
	// disables pruned dispatch for the whole session.
	KindSummary Kind = 14
	// KindDispatchDirect: frontend → node, one pruned (no-mesh) query
	// epoch: the node answers its local top-ℓ for each query point from
	// its own shard without starting a BSP epoch — no election-derived
	// rounds, no mesh traffic — and replies with a winners-only KindResult
	// (IsLeader 0, Rounds/Messages/Bytes 0). Body: Varint epoch, then a
	// Query body (identical layout to KindDispatch) holding exactly the
	// points this node must answer — the whole client batch or any
	// sub-batch of it; which batch positions they are is the frontend's
	// bookkeeping.
	KindDispatchDirect Kind = 15
)

// ModeServe is the only session mode a KindAssign frame carries: the node
// stays resident and, after the setup epoch, executes one BSP epoch per
// KindDispatch until shutdown. Mode 0 (the one-shot run) is retired and never
// reused; a node rejects any other value.
const ModeServe = 1

// Query operations.
const (
	// OpKNN returns the ℓ nearest neighbors.
	OpKNN = 1
	// OpClassify returns the majority label among the ℓ nearest.
	OpClassify = 2
	// OpRegress returns the mean label of the ℓ nearest.
	OpRegress = 3
)

// Point encodings, selected by the tag byte inside a Query.
const (
	// PointScalar is a one-dimensional integer point: U64 value.
	PointScalar = 1
	// PointVector is a d-dimensional point: Varint dim, then dim × F64.
	PointVector = 2
	// PointBitVector is a bit-packed point compared under Hamming
	// distance: Varint word count, then that many U64 words (64 bits
	// each).
	PointBitVector = 3
)

// MaxBatch bounds the number of points one Query may carry. It keeps a
// malformed (or greedy) client from pinning the whole cluster in one
// arbitrarily long epoch; decoders and the frontend both enforce it.
const MaxBatch = 4096

// Query is one client request: which operation to run, how many neighbors,
// and a batch of one or more query points in their tagged encoding. The
// batch is the wire-native query shape — a single query is a batch of one —
// and the whole batch is answered in a single BSP epoch on the serving
// mesh, the socket analogue of the in-process KNNBatch. It is the tail of
// the KindQueryTagged, KindDispatch and KindDispatchDirect frames.
type Query struct {
	Op     uint8
	L      int
	Tag    uint8
	Points [][]byte // tag-specific encodings, each length-prefixed on the wire
}

func (q Query) append(w *Writer) {
	w.U8(q.Op)
	w.Varint(uint64(q.L))
	w.U8(q.Tag)
	w.Varint(uint64(len(q.Points)))
	for _, p := range q.Points {
		w.Varint(uint64(len(p)))
		w.Raw(p)
	}
}

// EncodeQueryTagged builds a KindQueryTagged frame payload.
func EncodeQueryTagged(tag uint64, q Query) []byte {
	var w Writer
	AppendQueryTagged(&w, tag, q)
	return w.Bytes()
}

// AppendQueryTagged appends a KindQueryTagged frame payload to w.
func AppendQueryTagged(w *Writer, tag uint64, q Query) {
	w.Kind(KindQueryTagged)
	w.Varint(tag)
	q.append(w)
}

// EncodeDispatch builds a KindDispatch frame payload for one epoch.
func EncodeDispatch(epoch uint64, q Query) []byte {
	var w Writer
	AppendDispatch(&w, epoch, q)
	return w.Bytes()
}

// AppendDispatch appends a KindDispatch frame payload to w.
func AppendDispatch(w *Writer, epoch uint64, q Query) {
	w.Kind(KindDispatch)
	w.Varint(epoch)
	q.append(w)
}

// EncodeDispatchDirect builds a KindDispatchDirect frame payload for one
// pruned (no-mesh) epoch.
func EncodeDispatchDirect(epoch uint64, q Query) []byte {
	var w Writer
	AppendDispatchDirect(&w, epoch, q)
	return w.Bytes()
}

// AppendDispatchDirect appends a KindDispatchDirect frame payload to w.
func AppendDispatchDirect(w *Writer, epoch uint64, q Query) {
	w.Kind(KindDispatchDirect)
	w.Varint(epoch)
	q.append(w)
}

// DecodeQuery reads a Query body; the kind byte must already be consumed.
func DecodeQuery(r *Reader) (Query, error) {
	var q Query
	if err := DecodeQueryInto(r, &q); err != nil {
		return Query{}, err
	}
	return q, nil
}

// DecodeQueryInto reads a Query body into q, reusing q.Points' capacity so
// a per-connection Query decodes without allocating in the steady state.
// The decoded points alias the reader's buffer.
func DecodeQueryInto(r *Reader, q *Query) error {
	q.Op, q.L, q.Tag = r.U8(), int(r.Varint()), r.U8()
	q.Points = q.Points[:0]
	count := r.Varint()
	if r.Err() == nil && count > MaxBatch {
		q.Points = nil
		return fmt.Errorf("wire: query batch of %d exceeds limit %d", count, MaxBatch)
	}
	if r.Err() == nil && count > uint64(r.Remaining()) {
		q.Points = nil
		return fmt.Errorf("wire: query batch count %d exceeds payload", count)
	}
	if uint64(cap(q.Points)) < count {
		q.Points = make([][]byte, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		n := r.Varint()
		if r.Err() == nil && n > uint64(r.Remaining()) {
			q.Points = nil
			return fmt.Errorf("wire: query point length %d exceeds payload", n)
		}
		q.Points = append(q.Points, r.Raw(int(n)))
	}
	if err := r.Err(); err != nil {
		q.Points = nil
		return err
	}
	return nil
}

// NodeError is a node's report that an epoch failed. Origin distinguishes
// the node whose own program failed from the k−1 peers that merely observed
// the abort; Fatal marks a broken mesh (the node cannot serve further
// epochs until the failed peer — or the node itself — re-joins), as opposed
// to a recoverable program failure. LostPeer names the machine whose link
// died when the node could attribute the fault (-1 otherwise). It is the
// body of a KindError frame.
type NodeError struct {
	Epoch    uint64
	Origin   bool
	Fatal    bool
	LostPeer int
	Msg      string
}

// EncodeNodeError builds a KindError frame payload.
func EncodeNodeError(ne NodeError) []byte {
	var w Writer
	AppendNodeError(&w, ne)
	return w.Bytes()
}

// AppendNodeError appends a KindError frame payload to w.
func AppendNodeError(w *Writer, ne NodeError) {
	w.Kind(KindError)
	w.Varint(ne.Epoch)
	w.U8(b2u(ne.Origin))
	w.U8(b2u(ne.Fatal))
	if ne.LostPeer < 0 {
		w.Varint(0)
	} else {
		w.Varint(uint64(ne.LostPeer) + 1)
	}
	w.String(ne.Msg)
}

// DecodeNodeError reads a NodeError body; the kind byte must already be
// consumed.
func DecodeNodeError(r *Reader) (NodeError, error) {
	ne := NodeError{
		Epoch:    r.Varint(),
		Origin:   r.U8() == 1,
		Fatal:    r.U8() == 1,
		LostPeer: int(r.Varint()) - 1,
		Msg:      r.String(),
	}
	if err := r.Err(); err != nil {
		return NodeError{}, err
	}
	return ne, nil
}

// EncodeRejoin builds a KindRejoin frame payload. id < 0 asks the frontend
// to pick any absent slot (a restarted process that no longer knows its
// machine index).
func EncodeRejoin(id int, meshAddr string) []byte {
	var w Writer
	w.Kind(KindRejoin)
	if id < 0 {
		w.Varint(0)
	} else {
		w.Varint(uint64(id) + 1)
	}
	w.String(meshAddr)
	return w.Bytes()
}

// DecodeRejoin reads a KindRejoin body; the kind byte must already be
// consumed. The returned id is -1 when the node asked for any absent slot.
func DecodeRejoin(r *Reader) (id int, meshAddr string, err error) {
	id = int(r.Varint()) - 1
	meshAddr = r.String()
	if err := r.Err(); err != nil {
		return 0, "", err
	}
	return id, meshAddr, nil
}

// RejoinAssign is the frontend's grant for a node re-joining a running
// serving session: the slot it takes over, the session parameters, the
// already-elected leader (the rejoining node runs no setup epoch), the
// session's current epoch ordinal, the peers currently serving (which the
// rejoining node must dial to rebuild its mesh links) and the full address
// book. It is the body of a KindRejoinAssign frame.
type RejoinAssign struct {
	ID      int
	K       int
	Seed    uint64
	Leader  int
	Epoch   uint64
	Present []int
	Addrs   []string
}

// EncodeRejoinAssign builds a KindRejoinAssign frame payload.
func EncodeRejoinAssign(ra RejoinAssign) []byte {
	var w Writer
	w.Kind(KindRejoinAssign)
	w.Varint(uint64(ra.ID))
	w.Varint(uint64(ra.K))
	w.U64(ra.Seed)
	w.Varint(uint64(ra.Leader))
	w.Varint(ra.Epoch)
	w.Varint(uint64(len(ra.Present)))
	for _, id := range ra.Present {
		w.Varint(uint64(id))
	}
	for _, a := range ra.Addrs {
		w.String(a)
	}
	return w.Bytes()
}

// DecodeRejoinAssign reads a RejoinAssign body; the kind byte must already
// be consumed.
func DecodeRejoinAssign(r *Reader) (RejoinAssign, error) {
	ra := RejoinAssign{
		ID:     int(r.Varint()),
		K:      int(r.Varint()),
		Seed:   r.U64(),
		Leader: int(r.Varint()),
		Epoch:  r.Varint(),
	}
	if r.Err() == nil && (ra.K < 0 || uint64(ra.K) > uint64(r.Remaining())) {
		return RejoinAssign{}, fmt.Errorf("wire: rejoin cluster size %d exceeds payload", ra.K)
	}
	count := r.Varint()
	if r.Err() == nil && count > uint64(ra.K) {
		return RejoinAssign{}, fmt.Errorf("wire: rejoin present count %d exceeds cluster size %d", count, ra.K)
	}
	ra.Present = make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		ra.Present = append(ra.Present, int(r.Varint()))
	}
	ra.Addrs = make([]string, ra.K)
	for i := range ra.Addrs {
		ra.Addrs[i] = r.String()
	}
	if err := r.Err(); err != nil {
		return RejoinAssign{}, err
	}
	return ra, nil
}

// Ready is the body of a KindReady frame: what a node reports once its setup
// epoch (or its re-join) has completed — its seat, the leader it elected (or
// was handed), its shard size and the point encoding it serves.
type Ready struct {
	Node     int
	Leader   int
	ShardLen int64
	PointTag uint8
}

// AppendReady appends a KindReady frame payload to w.
func AppendReady(w *Writer, rdy Ready) {
	w.Kind(KindReady)
	w.Varint(uint64(rdy.Node))
	w.Varint(uint64(rdy.Leader))
	w.Varint(uint64(rdy.ShardLen))
	w.U8(rdy.PointTag)
}

// DecodeReady reads a Ready body; the kind byte must already be consumed.
func DecodeReady(r *Reader) (Ready, error) {
	rdy := Ready{
		Node:     int(r.Varint()),
		Leader:   int(r.Varint()),
		ShardLen: int64(r.Varint()),
		PointTag: r.U8(),
	}
	return rdy, r.Err()
}

// ShardSummary is one node's metric-index summary of its shard: the
// centroid (anchor) point in the session's wire encoding and the shard's
// true-distance radius around it. The frontend keeps one per seat and runs
// the triangle-inequality admission test against them to prune query
// dispatches; Has false (no centroid — the point type is not a metric, or
// the shard is empty without an explicit anchor) disables pruning for the
// session. It is the body of a KindSummary frame, reported right after
// every KindReady.
type ShardSummary struct {
	Node   int
	Has    bool
	Radius float64
	Center []byte
}

// EncodeShardSummary builds a KindSummary frame payload.
func EncodeShardSummary(s ShardSummary) []byte {
	var w Writer
	AppendShardSummary(&w, s)
	return w.Bytes()
}

// AppendShardSummary appends a KindSummary frame payload to w.
func AppendShardSummary(w *Writer, s ShardSummary) {
	w.Kind(KindSummary)
	w.Varint(uint64(s.Node))
	w.U8(b2u(s.Has))
	if s.Has {
		w.F64(s.Radius)
		w.Varint(uint64(len(s.Center)))
		w.Raw(s.Center)
	}
}

// DecodeShardSummary reads a ShardSummary body; the kind byte must already
// be consumed. The centroid bytes are copied out of the reader's buffer (a
// summary outlives its handshake frame).
func DecodeShardSummary(r *Reader) (ShardSummary, error) {
	s := ShardSummary{Node: int(r.Varint())}
	switch has := r.U8(); has {
	case 0:
	case 1:
		s.Has = true
		s.Radius = r.F64()
		n := r.Varint()
		if r.Err() == nil && n > uint64(r.Remaining()) {
			return ShardSummary{}, fmt.Errorf("wire: summary centroid length %d exceeds payload", n)
		}
		s.Center = append([]byte(nil), r.Raw(int(n))...)
	default:
		if err := r.Err(); err != nil {
			return ShardSummary{}, err
		}
		return ShardSummary{}, fmt.Errorf("wire: unknown summary has flag %d", has)
	}
	if err := r.Err(); err != nil {
		return ShardSummary{}, err
	}
	if s.Has && (s.Radius < 0 || s.Radius != s.Radius) {
		return ShardSummary{}, fmt.Errorf("wire: summary radius %g out of range", s.Radius)
	}
	return s, nil
}

// QueryOutcome is one query's slice of an epoch outcome. Inside a
// NodeResult, Winners is the reporting node's local share of that query's
// answer and the remaining fields are meaningful on the leader only; inside
// a Reply, Items is the full merged answer and the leader fields are
// authoritative.
type QueryOutcome struct {
	Boundary   keys.Key
	Survivors  int64
	FellBack   bool
	Iterations int
	Value      float64 // classification label or regression mean
}

// NodeQueryResult is one node's per-query share of an epoch result.
type NodeQueryResult struct {
	Winners []points.Item
	QueryOutcome
}

// NodeResult is one resident node's report for one query epoch: per batched
// query its local share of the winning points, plus its local view of the
// whole epoch's cost, and — on the leader only — each query's result
// metadata and aggregate value.
type NodeResult struct {
	Epoch    uint64
	Node     int
	Rounds   int
	Messages int64
	Bytes    int64
	IsLeader bool
	Queries  []NodeQueryResult
}

// EncodeNodeResult builds a KindResult frame payload.
func EncodeNodeResult(nr NodeResult) []byte {
	var w Writer
	AppendNodeResult(&w, nr)
	return w.Bytes()
}

// AppendNodeResult appends a KindResult frame payload to w (for pooled
// writers on the node's per-epoch result path).
func AppendNodeResult(w *Writer, nr NodeResult) {
	w.Kind(KindResult)
	w.Varint(nr.Epoch)
	w.Varint(uint64(nr.Node))
	w.Varint(uint64(nr.Rounds))
	w.Varint(uint64(nr.Messages))
	w.Varint(uint64(nr.Bytes))
	w.U8(b2u(nr.IsLeader))
	w.Varint(uint64(len(nr.Queries)))
	for _, qr := range nr.Queries {
		w.Items(qr.Winners)
		if nr.IsLeader {
			w.Key(qr.Boundary)
			w.Varint(uint64(qr.Survivors))
			w.U8(b2u(qr.FellBack))
			w.Varint(uint64(qr.Iterations))
			w.F64(qr.Value)
		}
	}
}

// DecodeNodeResult reads a NodeResult body; the kind byte must already be
// consumed.
func DecodeNodeResult(r *Reader) (NodeResult, error) {
	nr := NodeResult{
		Epoch:    r.Varint(),
		Node:     int(r.Varint()),
		Rounds:   int(r.Varint()),
		Messages: int64(r.Varint()),
		Bytes:    int64(r.Varint()),
		IsLeader: r.U8() == 1,
	}
	count := r.Varint()
	if r.Err() == nil && count > MaxBatch {
		return NodeResult{}, fmt.Errorf("wire: node result batch of %d exceeds limit %d", count, MaxBatch)
	}
	if r.Err() == nil && count > uint64(r.Remaining()) {
		return NodeResult{}, fmt.Errorf("wire: node result count %d exceeds payload", count)
	}
	nr.Queries = make([]NodeQueryResult, 0, count)
	for i := uint64(0); i < count; i++ {
		var qr NodeQueryResult
		qr.Winners = r.Items()
		if nr.IsLeader {
			qr.Boundary = r.Key()
			qr.Survivors = int64(r.Varint())
			qr.FellBack = r.U8() == 1
			qr.Iterations = int(r.Varint())
			qr.Value = r.F64()
		}
		nr.Queries = append(nr.Queries, qr)
	}
	if err := r.Err(); err != nil {
		return NodeResult{}, err
	}
	return nr, nil
}

// QueryReply is the merged answer to one query of a batch: the result
// metadata observed by the leader and — for OpKNN — the full merged
// neighbor list in ascending key order.
type QueryReply struct {
	QueryOutcome
	Items []points.Item
}

// Reply is the frontend's answer to one client query batch: either an error
// message (the whole batch shares one epoch, so it fails as a unit) or the
// per-query merged results with the epoch's aggregated distributed cost.
//
// Degraded marks an error caused by node churn — the cluster is missing
// nodes, or a node was lost while this very batch was in flight. A degraded
// failure is transient and safe to retry (every query op is an idempotent
// read): the batch either never ran or failed as a unit, and the cluster
// answers again once the absent node re-joins.
type Reply struct {
	Err      string // non-empty means the batch failed
	Degraded bool   // the failure is churn-induced and retryable

	Rounds   int
	Messages int64
	Bytes    int64
	Leader   int
	Results  []QueryReply // one per query, in batch order
}

func (rep Reply) append(w *Writer) {
	if rep.Err != "" {
		if rep.Degraded {
			w.U8(2)
		} else {
			w.U8(1)
		}
		w.String(rep.Err)
		return
	}
	w.U8(0)
	w.Varint(uint64(rep.Rounds))
	w.Varint(uint64(rep.Messages))
	w.Varint(uint64(rep.Bytes))
	w.Varint(uint64(rep.Leader))
	w.Varint(uint64(len(rep.Results)))
	for _, qr := range rep.Results {
		w.Key(qr.Boundary)
		w.Varint(uint64(qr.Survivors))
		w.U8(b2u(qr.FellBack))
		w.Varint(uint64(qr.Iterations))
		w.F64(qr.Value)
		w.Items(qr.Items)
	}
}

// EncodeReplyTagged builds a KindReplyTagged frame payload.
func EncodeReplyTagged(tag uint64, rep Reply) []byte {
	var w Writer
	AppendReplyTagged(&w, tag, rep)
	return w.Bytes()
}

// AppendReplyTagged appends a KindReplyTagged frame payload to w.
func AppendReplyTagged(w *Writer, tag uint64, rep Reply) {
	w.Kind(KindReplyTagged)
	w.Varint(tag)
	rep.append(w)
}

// DecodeReply reads a Reply body; the kind byte must already be consumed.
func DecodeReply(r *Reader) (Reply, error) {
	switch status := r.U8(); status {
	case 0:
		// Fall through to the result body below.
	case 1, 2:
		rep := Reply{Err: r.String(), Degraded: status == 2}
		if err := r.Err(); err != nil {
			return Reply{}, err
		}
		if rep.Err == "" {
			return Reply{}, fmt.Errorf("wire: error reply with empty message")
		}
		return rep, nil
	default:
		if err := r.Err(); err != nil {
			return Reply{}, err
		}
		return Reply{}, fmt.Errorf("wire: unknown reply status %d", status)
	}
	rep := Reply{
		Rounds:   int(r.Varint()),
		Messages: int64(r.Varint()),
		Bytes:    int64(r.Varint()),
		Leader:   int(r.Varint()),
	}
	count := r.Varint()
	if r.Err() == nil && count > MaxBatch {
		return Reply{}, fmt.Errorf("wire: reply batch of %d exceeds limit %d", count, MaxBatch)
	}
	if r.Err() == nil && count > uint64(r.Remaining()) {
		return Reply{}, fmt.Errorf("wire: reply count %d exceeds payload", count)
	}
	rep.Results = make([]QueryReply, 0, count)
	for i := uint64(0); i < count; i++ {
		var qr QueryReply
		qr.Boundary = r.Key()
		qr.Survivors = int64(r.Varint())
		qr.FellBack = r.U8() == 1
		qr.Iterations = int(r.Varint())
		qr.Value = r.F64()
		qr.Items = r.Items()
		rep.Results = append(rep.Results, qr)
	}
	if err := r.Err(); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
