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

func FuzzDecodeNodeResult(f *testing.F) {
	f.Add(EncodeNodeResult(NodeResult{
		Epoch: 1, Node: 0, Rounds: 26, Messages: 44, Bytes: 745, IsLeader: true,
		Queries: []NodeQueryResult{{
			Winners:      []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}},
			QueryOutcome: QueryOutcome{Boundary: keys.Key{Dist: 5, ID: 2}, Survivors: 20, Iterations: 4, Value: 2},
		}},
	})[1:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		nr, err := DecodeNodeResult(NewReader(data))
		if err != nil {
			return
		}
		enc := EncodeNodeResult(nr)
		nr2, err := DecodeNodeResult(skipKind(t, enc, KindResult))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeNodeResult(nr2), enc) {
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
	f.Add(EncodeQueryTagged(0, q))
	f.Add(EncodeQueryTagged(math.MaxUint64, q))
	f.Add(EncodeReplyTagged(7, Reply{Err: "nope"}))
	f.Add(EncodeReplyTagged(300, Reply{
		Rounds: 1, Leader: 0,
		Results: []QueryReply{{Items: []points.Item{{Key: keys.Key{Dist: 1, ID: 2}}}}},
	}))
	f.Add(EncodeReplyTagged(5, Reply{Err: "degraded", Degraded: true}))
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
			enc := EncodeQueryTagged(tag, q)
			r2 := skipKind(t, enc, KindQueryTagged)
			if got := r2.Varint(); got != tag {
				t.Fatalf("tag %d re-decoded as %d", tag, got)
			}
			q2, err := DecodeQuery(r2)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !bytes.Equal(EncodeQueryTagged(tag, q2), enc) {
				t.Fatalf("tagged query is not a re-encoding fixed point")
			}
		case KindReplyTagged:
			tag := r.Varint()
			rep, err := DecodeReply(r)
			if err != nil || r.Err() != nil {
				return
			}
			enc := EncodeReplyTagged(tag, rep)
			r2 := skipKind(t, enc, KindReplyTagged)
			if got := r2.Varint(); got != tag {
				t.Fatalf("tag %d re-decoded as %d", tag, got)
			}
			rep2, err := DecodeReply(r2)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !bytes.Equal(EncodeReplyTagged(tag, rep2), enc) {
				t.Fatalf("tagged reply is not a re-encoding fixed point")
			}
		default:
			// Not a tagged frame: nothing to round-trip.
		}
	})
}

func FuzzDecodeNodeError(f *testing.F) {
	f.Add(EncodeNodeError(NodeError{Epoch: 1, Origin: true, Msg: "boom"})[1:])
	f.Add(EncodeNodeError(NodeError{Epoch: 7, Fatal: true, LostPeer: 2, Msg: "lost peer 2"})[1:])
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

func FuzzDecodeRejoinAssign(f *testing.F) {
	f.Add(EncodeRejoinAssign(RejoinAssign{
		ID: 1, K: 3, Seed: 7, Leader: 0, Epoch: 42, Present: []int{0, 2},
		Addrs: []string{"127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9002"},
	})[1:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ra, err := DecodeRejoinAssign(NewReader(data))
		if err != nil {
			return
		}
		enc := EncodeRejoinAssign(ra)
		ra2, err := DecodeRejoinAssign(skipKind(t, enc, KindRejoinAssign))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeRejoinAssign(ra2), enc) {
			t.Fatalf("rejoin assign is not a re-encoding fixed point")
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
	f.Add(EncodeBitVectorPoint(points.BitVector{0xdeadbeef, 0x0f0f0f0f0f0f0f0f}))
	f.Add(EncodeBitVectorPoint(nil))
	f.Add([]byte{2, 0})
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
		if v, err := DecodeBitVectorPoint(data); err == nil {
			if !bytes.Equal(EncodeBitVectorPoint(v), data) {
				t.Fatalf("bit vector point is not a re-encoding fixed point")
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

// queryBody and replyBody are the bare Query and Reply body encodings: the
// tagged client frames with their kind byte and (one-byte) zero tag
// stripped.
func queryBody(q Query) []byte   { return EncodeQueryTagged(0, q)[2:] }
func replyBody(rep Reply) []byte { return EncodeReplyTagged(0, rep)[2:] }

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
