package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// The fuzz harnesses below check two properties on arbitrary bytes:
// decoders never panic or over-read, and anything that decodes re-encodes
// to exactly the bytes it was decoded from — every encoding is canonical,
// and a decoder that reads a whole frame rejects trailing bytes, so a frame
// in another layout cannot decode as a shorter valid one. The f.Add seeds
// are valid frames, plus one per decoder that carries a trailing byte, so a
// plain `go test` run (and CI) exercises the corpus as ordinary unit tests;
// `go test -fuzz` explores from there.

// trailing returns b with one extra byte appended.
func trailing(b []byte) []byte { return append(append([]byte(nil), b...), 0) }

func FuzzDecodeQuery(f *testing.F) {
	f.Add(queryBody(Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345)}}))
	f.Add(queryBody(Query{Op: OpClassify, L: 3, Tag: PointVector, Points: [][]byte{
		EncodeVectorPoint(points.Vector{1, 2}), EncodeVectorPoint(points.Vector{-0.5}),
	}}))
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 255})
	f.Add(trailing(queryBody(Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345)}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A client query body ends its frame.
		r := NewReader(data)
		q, err := DecodeQuery(r)
		if err == nil {
			err = r.End()
		}
		if err != nil {
			return
		}
		if len(q.Points) > MaxBatch {
			t.Fatalf("decoded batch of %d beyond MaxBatch", len(q.Points))
		}
		if !bytes.Equal(queryBody(q), data) {
			t.Fatalf("query is not a re-encoding fixed point")
		}
	})
}

// FuzzDecodeDispatchDirect covers the pruned dispatch frame whole: epoch,
// query body and the trailing bound list, whose count must be 0 or the
// point count.
func FuzzDecodeDispatchDirect(f *testing.F) {
	two := Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345), EncodeScalarPoint(5)}}
	bounds := []keys.Key{{Dist: 40, ID: 7}, keys.MaxKey}
	f.Add(encDispatchDirect(1, two, nil))
	f.Add(encDispatchDirect(2, two, bounds))
	f.Add(encDispatchDirect(3, two, bounds[:1])) // one bound for two points: rejected
	f.Add(trailing(encDispatchDirect(4, two, bounds)))
	f.Add([]byte{byte(KindDispatchDirect), 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		if r.Kind() != KindDispatchDirect {
			return
		}
		epoch := r.Varint()
		q, err := DecodeQuery(r)
		if err != nil {
			return
		}
		bs, err := DecodeBounds(r, len(q.Points))
		if err != nil {
			return
		}
		if len(bs) != 0 && len(bs) != len(q.Points) {
			t.Fatalf("decoded %d bounds for %d points", len(bs), len(q.Points))
		}
		if !bytes.Equal(encDispatchDirect(epoch, q, bs), data) {
			t.Fatalf("direct dispatch is not a re-encoding fixed point")
		}
	})
}

func FuzzDecodeNodeResult(f *testing.F) {
	f.Add(encNodeResult(NodeResult{
		Epoch: 1, Node: 0,
		Queries: []NodeQueryResult{{Winners: []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}}}},
	})[1:])
	f.Add(encNodeResult(NodeResult{
		Epoch: 2, Node: 1,
		Queries: []NodeQueryResult{{Winners: []points.Item{{Key: keys.Key{Dist: 4, ID: 7}, Label: 1}}}, {}},
	})[1:])
	f.Add(trailing(encNodeResult(NodeResult{Epoch: 3, Node: 1, Queries: []NodeQueryResult{{}}})[1:]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		nr, err := DecodeNodeResult(NewReader(data))
		if err != nil {
			return
		}
		if !bytes.Equal(encNodeResult(nr)[1:], data) {
			t.Fatalf("node result is not a re-encoding fixed point")
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add(replyBody(Reply{
		Rounds: 1, Messages: 4,
		Results: []QueryReply{{
			Boundary: keys.Key{Dist: 5, ID: 2},
			Items:    []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}},
		}},
	}))
	f.Add(replyBody(Reply{
		Rounds: 2, Messages: 3,
		Results: []QueryReply{{Boundary: keys.Key{Dist: 5, ID: 2}, Value: 2}},
	}))
	f.Add(replyBody(Reply{Err: "nope"}))
	f.Add(replyBody(Reply{Err: "cluster degraded (1 of 2 nodes)", Degraded: true}))
	f.Add([]byte{0})
	f.Add(trailing(replyBody(Reply{Rounds: 1, Messages: 2, Results: []QueryReply{{Value: 1}}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReply(NewReader(data))
		if err != nil {
			return
		}
		if !bytes.Equal(replyBody(rep), data) {
			t.Fatalf("reply is not a re-encoding fixed point")
		}
	})
}

// FuzzDecodeTaggedFrame covers the multiplexed query/reply kinds: the tag
// varint plus the shared body decoders, whole frames at a time.
func FuzzDecodeTaggedFrame(f *testing.F) {
	q := Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345)}}
	f.Add(encQueryTagged(0, q))
	f.Add(encQueryTagged(math.MaxUint64, q))
	f.Add(encReplyTagged(7, Reply{Err: "nope"}))
	f.Add(encReplyTagged(300, Reply{
		Rounds:  1,
		Results: []QueryReply{{Items: []points.Item{{Key: keys.Key{Dist: 1, ID: 2}}}}},
	}))
	f.Add(encReplyTagged(5, Reply{Err: "degraded", Degraded: true}))
	f.Add([]byte{byte(KindQueryTagged), 0x80})
	f.Add(trailing(encQueryTagged(9, q)))
	f.Add(trailing(encReplyTagged(9, Reply{Err: "nope"})))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		switch r.Kind() {
		case KindQueryTagged:
			// The frontend's client loop: tag, query body, end of frame.
			tag := r.Varint()
			q, err := DecodeQuery(r)
			if err == nil {
				err = r.End()
			}
			if err != nil {
				return
			}
			if !bytes.Equal(encQueryTagged(tag, q), data) {
				t.Fatalf("tagged query is not a re-encoding fixed point")
			}
		case KindReplyTagged:
			tag := r.Varint()
			rep, err := DecodeReply(r)
			if err != nil {
				return
			}
			if !bytes.Equal(encReplyTagged(tag, rep), data) {
				t.Fatalf("tagged reply is not a re-encoding fixed point")
			}
		default:
			// Not a tagged frame: nothing to round-trip.
		}
	})
}

func FuzzDecodeNodeError(f *testing.F) {
	f.Add(EncodeNodeError(NodeError{Epoch: 1, Msg: "boom"})[1:])
	f.Add(EncodeNodeError(NodeError{Epoch: 7, Msg: "no absent seat to re-join (cluster is full)"})[1:])
	f.Add([]byte{})
	f.Add(trailing(EncodeNodeError(NodeError{Epoch: 1, Msg: "boom"})[1:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		ne, err := DecodeNodeError(NewReader(data))
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeNodeError(ne)[1:], data) {
			t.Fatalf("node error is not a re-encoding fixed point")
		}
	})
}

func FuzzDecodeAssign(f *testing.F) {
	f.Add(EncodeAssign(Assign{ID: 1, K: 3})[1:])
	f.Add([]byte{})
	f.Add(EncodeAssign(Assign{ID: 0, K: 2})[1:])
	f.Add(trailing(EncodeAssign(Assign{ID: 1, K: 3})[1:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAssign(NewReader(data))
		if err != nil {
			return
		}
		if a.ID < 0 || a.ID >= a.K {
			t.Fatalf("decoder admitted an assign outside its cluster: %+v", a)
		}
		if !bytes.Equal(EncodeAssign(a)[1:], data) {
			t.Fatalf("assign is not a re-encoding fixed point")
		}
	})
}

// FuzzDecodeReady seeds from the ready frames docs/PROTOCOL.md quotes —
// with and without a metric summary — and from malformed summaries.
func FuzzDecodeReady(f *testing.F) {
	for _, ex := range docExamples() {
		if strings.HasPrefix(ex.Name, "ready") {
			f.Add(ex.Bytes[1:])
		}
	}
	f.Add([]byte{})
	f.Add(encReady(Ready{ShardLen: 3, PointTag: PointScalar, Summary: ShardSummary{Has: true}})[1:]) // radius 0, empty centroid
	f.Add([]byte{1, PointScalar, 2})                                                                 // unknown has flag
	f.Add([]byte{1, PointScalar, 1, 0, 0, 0, 0, 0, 0, 0, 0, 255})                                    // centroid length beyond payload
	f.Add(trailing(encReady(Ready{ShardLen: 5000, PointTag: PointScalar})[1:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		rdy, err := DecodeReady(NewReader(data))
		if err != nil {
			return
		}
		if rdy.ShardLen < 0 {
			t.Fatalf("decoder admitted a negative shard length: %+v", rdy)
		}
		if r := rdy.Summary.Radius; rdy.Summary.Has && (r < 0 || r != r) {
			t.Fatalf("decoder admitted out-of-range radius %g", r)
		}
		if !bytes.Equal(encReady(rdy)[1:], data) {
			t.Fatalf("ready is not a re-encoding fixed point")
		}
	})
}

func FuzzDecodeShardSummary(f *testing.F) {
	f.Add(encSummary(ShardSummary{Has: true, Radius: 0.25, Center: EncodeScalarPoint(12345)}))
	f.Add(encSummary(ShardSummary{Has: true, Radius: 0, Center: nil}))
	f.Add(encSummary(ShardSummary{}))
	f.Add([]byte{})
	f.Add([]byte{1})                              // truncated after the has flag
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 255}) // centroid length beyond payload
	f.Add(trailing(encSummary(ShardSummary{})))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		s, err := DecodeShardSummary(r)
		if err != nil || r.End() != nil {
			return
		}
		if s.Has && (s.Radius < 0 || s.Radius != s.Radius) {
			t.Fatalf("decoder admitted out-of-range radius %g", s.Radius)
		}
		if !bytes.Equal(encSummary(s), data) {
			t.Fatalf("shard summary is not a re-encoding fixed point")
		}
	})
}

func FuzzPointCodecs(f *testing.F) {
	f.Add(EncodeScalarPoint(12345))
	f.Add(EncodeVectorPoint(points.Vector{0.5, 1.5}))
	f.Add(EncodeVectorPoint(nil))
	f.Add([]byte{2, 0})
	f.Add(append(EncodeScalarPoint(7), 0))                 // trailing byte
	f.Add(EncodeVectorPoint(points.Vector{0.5, 1.5})[:12]) // truncated mid-coordinate
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := DecodeScalarPoint(data); err == nil {
			if !bytes.Equal(EncodeScalarPoint(v), data) {
				t.Fatalf("scalar point is not a re-encoding fixed point")
			}
		}
		if v, err := DecodeVectorPoint(data); err == nil {
			enc := EncodeVectorPoint(v)
			v2, err := DecodeVectorPoint(enc)
			if err != nil {
				t.Fatalf("vector re-decode failed: %v", err)
			}
			// Byte-level comparison keeps NaN coordinates comparable.
			if !bytes.Equal(EncodeVectorPoint(v2), enc) {
				t.Fatalf("vector point is not a re-encoding fixed point")
			}
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var framed bytes.Buffer
	_ = WriteFrame(&framed, []byte("abc"))
	f.Add(framed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add([]byte{0, 0, 0, 4}) // a MaxFrame header and no payload
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("re-framing failed: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame round trip: %v", err)
		}
	})
}

// The enc* helpers build one frame payload with the Append* codec the
// serving stack writes it through.
func encQueryTagged(tag uint64, q Query) []byte {
	var w Writer
	AppendQueryTagged(&w, tag, q)
	return w.Bytes()
}

func encDispatchDirect(epoch uint64, q Query, bounds []keys.Key) []byte {
	var w Writer
	AppendDispatchDirect(&w, epoch, q, bounds)
	return w.Bytes()
}

func encSummary(s ShardSummary) []byte {
	var w Writer
	AppendShardSummary(&w, s)
	return w.Bytes()
}

func encReady(rdy Ready) []byte {
	var w Writer
	AppendReady(&w, rdy)
	return w.Bytes()
}

func encNodeResult(nr NodeResult) []byte {
	var w Writer
	AppendNodeResult(&w, nr)
	return w.Bytes()
}

func encReplyTagged(tag uint64, rep Reply) []byte {
	var w Writer
	AppendReplyTagged(&w, tag, rep)
	return w.Bytes()
}

// queryBody and replyBody are the bare Query and Reply body encodings: the
// tagged client frames with their kind byte and (one-byte) zero tag
// stripped.
func queryBody(q Query) []byte   { return encQueryTagged(0, q)[2:] }
func replyBody(rep Reply) []byte { return encReplyTagged(0, rep)[2:] }
