package wire

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// docExamples are the frames whose bytes docs/PROTOCOL.md quotes. Both the
// pinning test and any tooling that regenerates the spec derive the hex
// from here, so the document can never drift from the codec.
func docExamples() []struct {
	Name  string
	Bytes []byte
} {
	// Single-query (batch of one) scalar KNN, and its epoch-1 dispatch.
	q := Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345)}}

	// A batch of two 2-dimensional vector queries.
	vq := Query{Op: OpKNN, L: 10, Tag: PointVector, Points: [][]byte{
		EncodeVectorPoint(points.Vector{0.5, 1.5}),
		EncodeVectorPoint(points.Vector{2, -1}),
	}}

	return []struct {
		Name  string
		Bytes []byte
	}{
		{"stream framing", []byte{3, 0, 0, 0, 'a', 'b', 'c'}},
		{"register", []byte{byte(KindRegister)}},
		{"assign", EncodeAssign(Assign{ID: 1, K: 2})},
		{"vector point", EncodeVectorPoint(points.Vector{0.5, 1.5})},
		{"query", encQueryTagged(300, q)},
		{"vector batch query", encQueryTagged(301, vq)},
		{"ready", encReady(Ready{ShardLen: 5000, PointTag: PointScalar, Summary: ShardSummary{
			Has: true, Radius: 0.25, Center: EncodeScalarPoint(12345),
		}})},
		{"ready without summary", encReady(Ready{ShardLen: 5000, PointTag: PointScalar})},
		{"dispatch direct", encDispatchDirect(1, q, nil)},
		{"dispatch direct sub-batch", encDispatchDirect(2, Query{
			Op: OpKNN, L: 10, Tag: PointScalar,
			Points: [][]byte{EncodeScalarPoint(12345), EncodeScalarPoint(5)},
		}, nil)},
		{"dispatch direct bounded sub-batch", encDispatchDirect(3, Query{
			Op: OpKNN, L: 10, Tag: PointScalar,
			Points: [][]byte{EncodeScalarPoint(12345), EncodeScalarPoint(5)},
		}, []keys.Key{{Dist: 40, ID: 7}, keys.MaxKey})},
		{"result", encNodeResult(NodeResult{
			Epoch: 1, Node: 0,
			Queries: []NodeQueryResult{{Winners: []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}}}},
		})},
		{"node error", EncodeNodeError(NodeError{Epoch: 1, Msg: "boom"})},
		{"shutdown", []byte{byte(KindShutdown)}},
		{"reply", encReplyTagged(300, Reply{
			Rounds: 1, Messages: 2,
			Results: []QueryReply{{
				Boundary: keys.Key{Dist: 5, ID: 2},
				Items:    []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}},
			}},
		})},
		{"error reply", encReplyTagged(302, Reply{Err: "l=0 out of range [1, 10000]"})},
		{"degraded reply", encReplyTagged(301, Reply{Err: "cluster degraded (1 of 2 nodes): waiting for node(s) [1]", Degraded: true})},
	}
}

// TestProtocolDocExamples pins docs/PROTOCOL.md to the shipped codec: every
// example frame is re-encoded and its hex must appear verbatim in the
// document (ignoring line breaks) as a whole fenced block, so a document
// example that merely starts with the current bytes — a field the codec
// dropped still trailing it — fails too. Changing an encoding without
// updating the spec — or vice versa — fails this test. Run with -v to print
// the expected hex of a failing example.
func TestProtocolDocExamples(t *testing.T) {
	raw, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("protocol spec missing: %v", err)
	}
	// Normalize all whitespace so examples may wrap in the document.
	doc := regexp.MustCompile(`\s+`).ReplaceAllString(string(raw), " ")

	for _, ex := range docExamples() {
		if !strings.Contains(doc, "``` "+hexBytes(ex.Bytes)+" ```") {
			t.Errorf("PROTOCOL.md is missing the current bytes of the %s example:\n%s", ex.Name, hexBytes(ex.Bytes))
		}
	}
}

func hexBytes(b []byte) string {
	parts := make([]string, len(b))
	for i, c := range b {
		parts[i] = fmt.Sprintf("%02x", c)
	}
	return strings.Join(parts, " ")
}

// TestFrameRoundTrips checks that every composite frame decodes back to
// what was encoded.
func TestFrameRoundTrips(t *testing.T) {
	q := Query{Op: OpClassify, L: 42, Tag: PointScalar, Points: [][]byte{
		EncodeScalarPoint(987654321),
		EncodeScalarPoint(5),
	}}
	{
		r := NewReader(encQueryTagged(9, q))
		if kind := r.Kind(); kind != KindQueryTagged || r.Varint() != 9 {
			t.Fatalf("kind %d", kind)
		}
		got, err := DecodeQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != q.Op || got.L != q.L || got.Tag != q.Tag || len(got.Points) != 2 {
			t.Fatalf("query round trip: %+v", got)
		}
		v, err := DecodeScalarPoint(got.Points[0])
		if err != nil || v != 987654321 {
			t.Fatalf("point round trip: %d %v", v, err)
		}
		if v, err := DecodeScalarPoint(got.Points[1]); err != nil || v != 5 {
			t.Fatalf("point round trip: %d %v", v, err)
		}
	}
	{
		vq := Query{Op: OpKNN, L: 3, Tag: PointVector, Points: [][]byte{
			EncodeVectorPoint(points.Vector{1.5, -2.25, 0}),
		}}
		r := NewReader(encQueryTagged(9, vq))
		r.U8()
		r.Varint()
		got, err := DecodeQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		vec, err := DecodeVectorPoint(got.Points[0])
		if err != nil || len(vec) != 3 || vec[0] != 1.5 || vec[1] != -2.25 || vec[2] != 0 {
			t.Fatalf("vector round trip: %v %v", vec, err)
		}
	}
	{
		bounds := []keys.Key{{Dist: 40, ID: 7}, keys.MaxKey}
		for _, bs := range [][]keys.Key{nil, bounds} {
			r := NewReader(encDispatchDirect(9, q, bs))
			if kind := r.Kind(); kind != KindDispatchDirect || r.Varint() != 9 {
				t.Fatalf("kind %d", kind)
			}
			got, err := DecodeQuery(r)
			if err != nil {
				t.Fatal(err)
			}
			gotBounds, err := DecodeBounds(r, len(got.Points))
			if err != nil || len(gotBounds) != len(bs) || r.Remaining() != 0 {
				t.Fatalf("bounds round trip: %v %v", gotBounds, err)
			}
			for i := range bs {
				if gotBounds[i] != bs[i] {
					t.Fatalf("bound %d = %v, want %v", i, gotBounds[i], bs[i])
				}
			}
		}
	}
	{
		nr := NodeResult{
			Epoch: 3, Node: 2,
			Queries: []NodeQueryResult{{Winners: []points.Item{{Key: keys.Key{Dist: 9, ID: 4}, Label: 1.5}}}, {}},
		}
		r := NewReader(encNodeResult(nr))
		if kind := r.Kind(); kind != KindResult {
			t.Fatalf("kind %d", kind)
		}
		got, err := DecodeNodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != nr.Epoch || got.Node != nr.Node || len(got.Queries) != 2 || len(got.Queries[0].Winners) != 1 ||
			got.Queries[0].Winners[0] != nr.Queries[0].Winners[0] || len(got.Queries[1].Winners) != 0 {
			t.Fatalf("node result round trip: %+v", got)
		}
	}
	{
		ne := NodeError{Epoch: 7, Msg: "boom"}
		r := NewReader(EncodeNodeError(ne))
		if kind := r.Kind(); kind != KindError {
			t.Fatalf("kind %d", kind)
		}
		if got, err := DecodeNodeError(r); err != nil || got != ne {
			t.Fatalf("node error round trip: %+v %v", got, err)
		}
	}
	{
		a := Assign{ID: 2, K: 3}
		r := NewReader(EncodeAssign(a))
		if kind := r.Kind(); kind != KindAssign {
			t.Fatalf("kind %d", kind)
		}
		if got, err := DecodeAssign(r); err != nil || got != a {
			t.Fatalf("assign round trip: %+v %v", got, err)
		}
	}
	{
		rep := Reply{
			Rounds: 2, Messages: 13,
			Results: []QueryReply{
				{
					Boundary: keys.Key{Dist: 77, ID: 8},
					Value:    3.25,
					Items:    []points.Item{{Key: keys.Key{Dist: 1, ID: 2}, Label: 0}},
				},
				{Boundary: keys.Key{Dist: 80, ID: 9}},
			},
		}
		r := NewReader(encReplyTagged(9, rep))
		if kind := r.Kind(); kind != KindReplyTagged || r.Varint() != 9 {
			t.Fatalf("kind %d", kind)
		}
		got, err := DecodeReply(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != rep.Rounds || got.Messages != rep.Messages || len(got.Results) != 2 {
			t.Fatalf("reply round trip: %+v", got)
		}
		if got.Results[0].Boundary != rep.Results[0].Boundary || got.Results[0].Value != rep.Results[0].Value ||
			len(got.Results[0].Items) != 1 || got.Results[0].Items[0] != rep.Results[0].Items[0] {
			t.Fatalf("reply query 0: %+v", got.Results[0])
		}
		if got.Results[1].Boundary != rep.Results[1].Boundary || len(got.Results[1].Items) != 0 {
			t.Fatalf("reply query 1: %+v", got.Results[1])
		}
	}
	{
		r := NewReader(encReplyTagged(9, Reply{Err: "nope"}))
		r.U8()
		r.Varint()
		got, err := DecodeReply(r)
		if err != nil || got.Err != "nope" {
			t.Fatalf("error reply round trip: %+v %v", got, err)
		}
	}
}

// TestTaggedFrameRoundTrips checks the client query/reply pair across the
// tag range: the tag survives the trip and the body decodes behind it.
func TestTaggedFrameRoundTrips(t *testing.T) {
	q := Query{Op: OpKNN, L: 7, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(42)}}
	for _, tag := range []uint64{0, 1, 300, math.MaxUint64} {
		r := NewReader(encQueryTagged(tag, q))
		if kind := r.Kind(); kind != KindQueryTagged {
			t.Fatalf("kind %d", kind)
		}
		if got := r.Varint(); got != tag {
			t.Fatalf("tag %d, want %d", got, tag)
		}
		got, err := DecodeQuery(r)
		if err != nil || got.Op != q.Op || got.L != q.L || len(got.Points) != 1 {
			t.Fatalf("tagged query round trip: %+v %v", got, err)
		}
	}
	rep := Reply{
		Rounds: 2, Messages: 5,
		Results: []QueryReply{{
			Boundary: keys.Key{Dist: 8, ID: 3},
			Items:    []points.Item{{Key: keys.Key{Dist: 4, ID: 9}, Label: 1}},
		}},
	}
	r := NewReader(encReplyTagged(77, rep))
	if kind := r.Kind(); kind != KindReplyTagged {
		t.Fatalf("kind %d", kind)
	}
	if got := r.Varint(); got != 77 {
		t.Fatalf("tag %d", got)
	}
	got, err := DecodeReply(r)
	if err != nil || got.Rounds != rep.Rounds || len(got.Results) != 1 ||
		got.Results[0].Boundary != rep.Results[0].Boundary ||
		got.Results[0].Items[0] != rep.Results[0].Items[0] {
		t.Fatalf("tagged reply round trip: %+v %v", got, err)
	}
	// Degraded errors survive tagging too.
	r = NewReader(encReplyTagged(5, Reply{Err: "degraded", Degraded: true}))
	r.U8()
	r.Varint()
	if got, err := DecodeReply(r); err != nil || !got.Degraded || got.Err != "degraded" {
		t.Fatalf("tagged degraded reply: %+v %v", got, err)
	}
	// The client query and the dispatch share one query body encoding:
	// behind kind+tag and kind+epoch the bytes are identical, and the
	// dispatch appends only its bound list (here empty, one 00).
	body := hexBytes(encQueryTagged(1, q)[2:])
	if hexBytes(encDispatchDirect(1, q, nil)[2:]) != body+" 00" {
		t.Fatalf("dispatch body drifted from the client query body")
	}
}

// TestDecodeBoundsCount pins the one rule of the direct dispatch's bound
// list: it is empty (a probe wave) or holds exactly one key per point (a
// gather wave); any other count is a malformed frame.
func TestDecodeBoundsCount(t *testing.T) {
	q := Query{Op: OpKNN, L: 4, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(1), EncodeScalarPoint(2)}}
	for _, nb := range []int{0, 1, 2, 3} {
		bs := make([]keys.Key, nb)
		r := NewReader(encDispatchDirect(1, q, bs))
		r.Kind()
		r.Varint()
		got, err := DecodeQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeBounds(r, len(got.Points))
		if ok := nb == 0 || nb == len(q.Points); ok != (err == nil) {
			t.Fatalf("%d bounds for %d points: err %v", nb, len(q.Points), err)
		}
	}
	// A frame cut inside its bound list is rejected too.
	frame := encDispatchDirect(1, q, make([]keys.Key, 2))
	r := NewReader(frame[:len(frame)-1])
	r.Kind()
	r.Varint()
	if _, err := DecodeQuery(r); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBounds(r, 2); err == nil {
		t.Fatal("a truncated bound list must be rejected")
	}
}

// TestDecodeQueryLimits rejects oversized batch declarations outright
// instead of attempting a huge allocation.
func TestDecodeQueryLimits(t *testing.T) {
	var w Writer
	w.U8(OpKNN)
	w.Varint(1)
	w.U8(PointScalar)
	w.Varint(MaxBatch + 1)
	if _, err := DecodeQuery(NewReader(w.Bytes())); err == nil {
		t.Fatal("batch beyond MaxBatch must be rejected")
	}
}
