package wire

import (
	"bytes"
	"math"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// The fuzz harnesses below check two properties on arbitrary bytes:
// decoders never panic or over-read, and anything that decodes re-encodes
// canonically (encode(decode(b)) is a fixed point). The f.Add seeds are
// valid frames, so a plain `go test` run (and CI) exercises the corpus as
// ordinary unit tests; `go test -fuzz` explores from there.

func FuzzDecodeQuery(f *testing.F) {
	f.Add(queryBody(Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345)}}))
	f.Add(queryBody(Query{Op: OpClassify, L: 3, Tag: PointVector, Points: [][]byte{
		EncodeVectorPoint(points.Vector{1, 2}), EncodeVectorPoint(points.Vector{-0.5}),
	}}))
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuery(NewReader(data))
		if err != nil {
			return
		}
		if len(q.Points) > MaxBatch {
			t.Fatalf("decoded batch of %d beyond MaxBatch", len(q.Points))
		}
		enc := queryBody(q)
		q2, err := DecodeQuery(NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(queryBody(q2), enc) {
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
		enc := encDispatchDirect(epoch, q, bs)
		r2 := skipKind(t, enc, KindDispatchDirect)
		if got := r2.Varint(); got != epoch {
			t.Fatalf("epoch %d re-decoded as %d", epoch, got)
		}
		q2, err := DecodeQuery(r2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		bs2, err := DecodeBounds(r2, len(q2.Points))
		if err != nil {
			t.Fatalf("re-decode of the bounds failed: %v", err)
		}
		if !bytes.Equal(encDispatchDirect(epoch, q2, bs2), enc) {
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
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		nr, err := DecodeNodeResult(NewReader(data))
		if err != nil {
			return
		}
		enc := encNodeResult(nr)
		nr2, err := DecodeNodeResult(skipKind(t, enc, KindResult))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(encNodeResult(nr2), enc) {
			t.Fatalf("node result is not a re-encoding fixed point")
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add(replyBody(Reply{
		Rounds: 26, Messages: 44, Bytes: 745, Leader: 0,
		Results: []QueryReply{{
			QueryOutcome: QueryOutcome{Boundary: keys.Key{Dist: 5, ID: 2}, Survivors: 20, Iterations: 4},
			Items:        []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}},
		}},
	}))
	f.Add(replyBody(Reply{
		Rounds: 26, Messages: 44, Bytes: 745, Leader: 1,
		Results: []QueryReply{{QueryOutcome: QueryOutcome{Boundary: keys.Key{Dist: 5, ID: 2}}, Value: 2}},
	}))
	f.Add(replyBody(Reply{Err: "nope"}))
	f.Add(replyBody(Reply{Err: "cluster degraded (1 of 2 nodes)", Degraded: true}))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReply(NewReader(data))
		if err != nil {
			return
		}
		enc := replyBody(rep)
		rep2, err := DecodeReply(NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(replyBody(rep2), enc) {
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
		Rounds: 1, Leader: 0,
		Results: []QueryReply{{Items: []points.Item{{Key: keys.Key{Dist: 1, ID: 2}}}}},
	}))
	f.Add(encReplyTagged(5, Reply{Err: "degraded", Degraded: true}))
	f.Add([]byte{byte(KindQueryTagged), 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		switch r.Kind() {
		case KindQueryTagged:
			tag := r.Varint()
			q, err := DecodeQuery(r)
			if err != nil || r.Err() != nil {
				return
			}
			enc := encQueryTagged(tag, q)
			r2 := skipKind(t, enc, KindQueryTagged)
			if got := r2.Varint(); got != tag {
				t.Fatalf("tag %d re-decoded as %d", tag, got)
			}
			q2, err := DecodeQuery(r2)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !bytes.Equal(encQueryTagged(tag, q2), enc) {
				t.Fatalf("tagged query is not a re-encoding fixed point")
			}
		case KindReplyTagged:
			tag := r.Varint()
			rep, err := DecodeReply(r)
			if err != nil || r.Err() != nil {
				return
			}
			enc := encReplyTagged(tag, rep)
			r2 := skipKind(t, enc, KindReplyTagged)
			if got := r2.Varint(); got != tag {
				t.Fatalf("tag %d re-decoded as %d", tag, got)
			}
			rep2, err := DecodeReply(r2)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !bytes.Equal(encReplyTagged(tag, rep2), enc) {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		ne, err := DecodeNodeError(NewReader(data))
		if err != nil {
			return
		}
		enc := EncodeNodeError(ne)
		ne2, err := DecodeNodeError(skipKind(t, enc, KindError))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeNodeError(ne2), enc) {
			t.Fatalf("node error is not a re-encoding fixed point")
		}
	})
}

func FuzzDecodeAssign(f *testing.F) {
	f.Add(EncodeAssign(Assign{ID: 1, K: 3})[1:])
	f.Add([]byte{})
	f.Add(EncodeAssign(Assign{ID: 0, K: 2})[1:])
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAssign(NewReader(data))
		if err != nil {
			return
		}
		if a.ID < 0 || a.ID >= a.K {
			t.Fatalf("decoder admitted an assign outside its cluster: %+v", a)
		}
		enc := EncodeAssign(a)
		a2, err := DecodeAssign(skipKind(t, enc, KindAssign))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeAssign(a2), enc) {
			t.Fatalf("assign is not a re-encoding fixed point")
		}
	})
}

// FuzzDecodeReady seeds from the ready frame docs/PROTOCOL.md quotes.
func FuzzDecodeReady(f *testing.F) {
	for _, ex := range docExamples() {
		if ex.Name == "ready" {
			f.Add(ex.Bytes[1:])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rdy, err := DecodeReady(NewReader(data))
		if err != nil {
			return
		}
		if rdy.ShardLen < 0 {
			t.Fatalf("decoder admitted a negative shard length: %+v", rdy)
		}
		var w Writer
		AppendReady(&w, rdy)
		enc := w.Bytes()
		rdy2, err := DecodeReady(skipKind(t, enc, KindReady))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rdy2 != rdy {
			t.Fatalf("ready is not a re-encoding fixed point: %+v, then %+v", rdy, rdy2)
		}
	})
}

func FuzzDecodeShardSummary(f *testing.F) {
	f.Add(EncodeShardSummary(ShardSummary{Node: 1, Has: true, Radius: 0.25, Center: EncodeScalarPoint(12345)})[1:])
	f.Add(EncodeShardSummary(ShardSummary{Node: 0, Has: true, Radius: 0, Center: nil})[1:])
	f.Add(EncodeShardSummary(ShardSummary{Node: 2})[1:])
	f.Add([]byte{})
	f.Add([]byte{1, 2})                              // truncated after the has flag
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 255}) // centroid length beyond payload
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeShardSummary(NewReader(data))
		if err != nil {
			return
		}
		if s.Has && (s.Radius < 0 || s.Radius != s.Radius) {
			t.Fatalf("decoder admitted out-of-range radius %g", s.Radius)
		}
		enc := EncodeShardSummary(s)
		s2, err := DecodeShardSummary(skipKind(t, enc, KindSummary))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeShardSummary(s2), enc) {
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

// skipKind wraps an encoded frame in a Reader positioned after its kind
// byte, asserting the kind on the way.
func skipKind(t *testing.T, frame []byte, kind Kind) *Reader {
	t.Helper()
	r := NewReader(frame)
	if got := r.Kind(); got != kind {
		t.Fatalf("kind %d, want %d", got, kind)
	}
	return r
}
