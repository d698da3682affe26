package wire

import (
	"fmt"
	"math"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// Control-plane frame kinds. Every frame crossing a node's control
// connection or a client connection starts with one of these bytes; nodes
// never talk to each other. The full layouts are specified in
// docs/PROTOCOL.md and pinned by golden-byte tests in this package.

// Kind identifies a control-plane frame type. It is a named type (rather
// than a bare byte) so every dispatch site switches on a wire.Kind value,
// which lets the knnlint kindswitch analyzer prove each switch either
// handles all declared kinds or carries an explicit default.
type Kind uint8

const (
	// KindRegister: node → frontend, asking for a seat. Empty body.
	KindRegister Kind = 1
	// KindAssign: frontend → node, the grant of a seat, for a fresh
	// rendezvous and a re-join alike. Body: Assign.
	KindAssign Kind = 2
	// KindReady: node → frontend, once the node has loaded its shard, at
	// rendezvous and on a re-join alike. Body: Ready — Varint shard size, U8
	// point tag, then the shard's metric-index summary: U8 has; if has is 1,
	// F64 radius and String centroid point bytes (the shard's anchor in the
	// session's point encoding).
	KindReady Kind = 3
	// KindResult: node → frontend, one epoch's outcome. Body: NodeResult.
	KindResult Kind = 5
	// KindError: node → frontend, the epoch failed. Body: NodeError —
	// Varint epoch, String message.
	KindError Kind = 6
	// KindShutdown: frontend → node, clean stop. Empty body.
	KindShutdown Kind = 7

	// Kinds 4 (the mesh-epoch dispatch), 8 and 9 (the untagged client
	// query/reply pair), 10 and 11 (the seat-claiming Rejoin request and its
	// separate grant), 14 (the shard summary once sent after every ready
	// frame, now part of it) and 16 (the pruned sub-batch dispatch with an
	// index list) are retired and never reused.

	// KindQueryTagged: client → frontend, one query. Body: Varint tag
	// (client-chosen request id, echoed verbatim in the reply), then a Query
	// body. Queries on one connection may be answered out of order; the tag
	// matches a reply to its query.
	KindQueryTagged Kind = 12
	// KindReplyTagged: frontend → client, the answer to one query. Body:
	// Varint tag, then a Reply body.
	KindReplyTagged Kind = 13
	// KindDispatchDirect: frontend → node, one query epoch, the only
	// dispatch: the node answers its local top-ℓ for each query point from
	// its own shard and replies with a KindResult. Body: Varint epoch, then
	// a Query body holding exactly the points this node must answer — the
	// whole client batch or any sub-batch of it; which batch positions they
	// are is the frontend's bookkeeping — then the bound list: Varint nb,
	// nb × Key, where nb is 0 (no bounds: a full-scatter or probe wave) or
	// the point count (a gather wave: the node returns only keys strictly
	// below point i's bound).
	KindDispatchDirect Kind = 15
)

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

	// Tag 3 (an earlier bit-packed point encoding) is retired and never
	// reused.
)

// MaxBatch bounds the number of points one Query may carry. It keeps a
// malformed (or greedy) client from pinning the whole cluster in one
// arbitrarily long epoch; decoders and the frontend both enforce it.
const MaxBatch = 4096

// Query is one client request: which operation to run, how many neighbors,
// and a batch of one or more query points in their tagged encoding. The
// batch is the wire-native query shape — a single query is a batch of one —
// and the whole batch is answered in one dispatch wave, the socket analogue
// of the in-process KNNBatch. It is the tail of the KindQueryTagged frame,
// and KindDispatchDirect's body up to its bound list.
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

// AppendQueryTagged appends a KindQueryTagged frame payload to w.
func AppendQueryTagged(w *Writer, tag uint64, q Query) {
	w.Kind(KindQueryTagged)
	w.Varint(tag)
	q.append(w)
}

// AppendDispatchDirect appends a KindDispatchDirect frame payload to w:
// the query body, then bounds — empty, or one ceiling key per point.
func AppendDispatchDirect(w *Writer, epoch uint64, q Query, bounds []keys.Key) {
	w.Kind(KindDispatchDirect)
	w.Varint(epoch)
	q.append(w)
	w.Keys(bounds)
}

// DecodeBounds reads the bound list that ends a KindDispatchDirect body
// whose query holds n points: nil for an empty list, else exactly one key
// per point. Any other count, and any byte after the list, is rejected.
func DecodeBounds(r *Reader, n int) ([]keys.Key, error) {
	bounds := r.Keys()
	if err := r.End(); err != nil {
		return nil, err
	}
	switch len(bounds) {
	case 0:
		return nil, nil
	case n:
		return bounds, nil
	}
	return nil, fmt.Errorf("wire: direct dispatch carries %d bounds for %d points", len(bounds), n)
}

// DecodeQuery reads a Query body; the kind byte must already be consumed.
// The body need not end the frame (a dispatch's bound list follows it), so
// the caller checks the frame's end.
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

// NodeError is a node's report that an epoch failed: the epoch ordinal
// and the failure's message. It is the body of a KindError frame, and of
// the frontend's refusal of a registration.
type NodeError struct {
	Epoch uint64
	Msg   string
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
	w.String(ne.Msg)
}

// DecodeNodeError reads a NodeError body; the kind byte must already be
// consumed.
func DecodeNodeError(r *Reader) (NodeError, error) {
	ne := NodeError{Epoch: r.Varint(), Msg: r.String()}
	if err := r.End(); err != nil {
		return NodeError{}, err
	}
	return ne, nil
}

// Assign is the frontend's grant of a seat: the machine index the node
// takes and the cluster size, which together decide the shard the node
// builds. It is the body of a KindAssign frame: Varint id, Varint k.
type Assign struct {
	ID int
	K  int
}

// EncodeAssign builds a KindAssign frame payload.
func EncodeAssign(a Assign) []byte {
	var w Writer
	w.Kind(KindAssign)
	w.Varint(uint64(a.ID))
	w.Varint(uint64(a.K))
	return w.Bytes()
}

// DecodeAssign reads an Assign body; the kind byte must already be consumed.
// The seat it returns lies inside the cluster, and the cluster size fits an
// int.
func DecodeAssign(r *Reader) (Assign, error) {
	id, k := r.Varint(), r.Varint()
	if err := r.End(); err != nil {
		return Assign{}, err
	}
	if id >= k || k > math.MaxInt32 {
		return Assign{}, fmt.Errorf("wire: assign of seat %d does not fit a %d-node cluster", id, k)
	}
	return Assign{ID: int(id), K: int(k)}, nil
}

// Ready is the body of a KindReady frame: what a node reports once it has
// loaded its shard — its shard size, the point encoding it serves and the
// shard's metric-index summary. It names no seat: the Assign on the same
// connection fixed that.
type Ready struct {
	ShardLen int64
	PointTag uint8
	Summary  ShardSummary
}

// ShardSummary is one node's metric-index summary of its shard: the
// centroid (anchor) point in the session's wire encoding and the shard's
// true-distance radius around it. The frontend keeps one per seat and runs
// the triangle-inequality admission test against them to prune query
// dispatches; Has false (no centroid — the point type is not a metric, or
// the shard is empty without an explicit anchor) disables pruning for the
// session.
type ShardSummary struct {
	Has    bool
	Radius float64
	Center []byte
}

// AppendReady appends a KindReady frame payload to w.
func AppendReady(w *Writer, rdy Ready) {
	w.Kind(KindReady)
	w.Varint(uint64(rdy.ShardLen))
	w.U8(rdy.PointTag)
	AppendShardSummary(w, rdy.Summary)
}

// AppendShardSummary appends s to w as the tail of a Ready body: a has
// flag and, when set, the radius and the length-prefixed centroid.
func AppendShardSummary(w *Writer, s ShardSummary) {
	w.U8(b2u(s.Has))
	if s.Has {
		w.F64(s.Radius)
		w.Varint(uint64(len(s.Center)))
		w.Raw(s.Center)
	}
}

// DecodeShardSummary reads the summary tail of a Ready body, leaving the
// reader after it. It rejects a negative or NaN radius; a +Inf radius is
// accepted (the admission test then admits the seat to every query). The
// centroid bytes are copied out of the reader's buffer, as a summary
// outlives its handshake frame.
func DecodeShardSummary(r *Reader) (ShardSummary, error) {
	var s ShardSummary
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

// DecodeReady reads a Ready body; the kind byte must already be consumed.
// It rejects a shard length that does not fit an int64 and whatever
// DecodeShardSummary rejects in the summary tail.
func DecodeReady(r *Reader) (Ready, error) {
	shardLen, tag := r.Varint(), r.U8()
	sum, err := DecodeShardSummary(r)
	if err != nil {
		return Ready{}, err
	}
	if err := r.End(); err != nil {
		return Ready{}, err
	}
	if shardLen > math.MaxInt64 {
		return Ready{}, fmt.Errorf("wire: ready shard of %d points does not fit an int64", shardLen)
	}
	return Ready{ShardLen: int64(shardLen), PointTag: tag, Summary: sum}, nil
}

// NodeQueryResult is one node's answer for one point of a dispatch: its
// local winners in ascending key order.
type NodeQueryResult struct {
	Winners []points.Item
}

// NodeResult is one resident node's report for one dispatch: per point it
// was sent, its local winners. It is the body of a KindResult frame: Varint
// epoch, Varint node, Varint count, then count × Items.
type NodeResult struct {
	Epoch   uint64
	Node    int
	Queries []NodeQueryResult
}

// AppendNodeResult appends a KindResult frame payload to w (for pooled
// writers on the node's per-epoch result path).
func AppendNodeResult(w *Writer, nr NodeResult) {
	w.Kind(KindResult)
	w.Varint(nr.Epoch)
	w.Varint(uint64(nr.Node))
	w.Varint(uint64(len(nr.Queries)))
	for _, qr := range nr.Queries {
		w.Items(qr.Winners)
	}
}

// DecodeNodeResult reads a NodeResult body; the kind byte must already be
// consumed.
func DecodeNodeResult(r *Reader) (NodeResult, error) {
	nr := NodeResult{Epoch: r.Varint(), Node: int(r.Varint())}
	count := r.Varint()
	if r.Err() == nil && count > MaxBatch {
		return NodeResult{}, fmt.Errorf("wire: node result batch of %d exceeds limit %d", count, MaxBatch)
	}
	if r.Err() == nil && count > uint64(r.Remaining()) {
		return NodeResult{}, fmt.Errorf("wire: node result count %d exceeds payload", count)
	}
	nr.Queries = make([]NodeQueryResult, 0, count)
	for i := uint64(0); i < count; i++ {
		nr.Queries = append(nr.Queries, NodeQueryResult{Winners: r.Items()})
	}
	if err := r.End(); err != nil {
		return NodeResult{}, err
	}
	return nr, nil
}

// ItemsFit reports whether n item lists of at most l items each fit one
// frame: a node's result for n points at ℓ = l, or the reply to an n-point
// query, whose per-query fields the allowance of 64 bytes a list covers.
// A query whose lists cannot fit is refused before any node answers it.
func ItemsFit(n, l int) bool {
	const itemBytes, listBytes = 24, 64 // Key + F64 label; a list's fixed fields
	if n < 0 || l < 0 || l > MaxFrame/itemBytes {
		return false
	}
	return int64(n)*(int64(l)*itemBytes+listBytes)+listBytes <= MaxFrame
}

// QueryReply is the answer to one query of a batch: the boundary (its ℓ-th
// key) and — for OpKNN — the full merged neighbor list in ascending key
// order, or — for OpClassify and OpRegress — the label the frontend folded
// from the winner shares.
type QueryReply struct {
	Boundary keys.Key
	Value    float64 // classification label or regression mean
	Items    []points.Item
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

	Rounds   int          // dispatch waves
	Messages int64        // per-point node contacts
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
	w.Varint(uint64(len(rep.Results)))
	for _, qr := range rep.Results {
		w.Key(qr.Boundary)
		w.F64(qr.Value)
		w.Items(qr.Items)
	}
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
		if err := r.End(); err != nil {
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
		rep.Results = append(rep.Results, QueryReply{Boundary: r.Key(), Value: r.F64(), Items: r.Items()})
	}
	if err := r.End(); err != nil {
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
