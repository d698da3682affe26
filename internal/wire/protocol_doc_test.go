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
	var reg Writer
	reg.Kind(KindRegister)
	reg.String("127.0.0.1:9000")

	var hello Writer
	hello.Varint(1)

	var mesh Writer
	mesh.U8(0)
	mesh.Varint(1)
	mesh.Varint(2)
	mesh.Varint(2)
	mesh.Varint(3) // lane index + payload
	mesh.Varint(0)
	mesh.Raw([]byte("hi"))
	mesh.Varint(1)
	mesh.Varint(1)

	// Single-query (batch of one) scalar KNN, and its epoch-1 dispatch.
	q := Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345)}}

	// A batch of two 2-dimensional vector queries.
	vq := Query{Op: OpKNN, L: 10, Tag: PointVector, Points: [][]byte{
		EncodeVectorPoint(points.Vector{0.5, 1.5}),
		EncodeVectorPoint(points.Vector{2, -1}),
	}}

	var rdy Writer
	AppendReady(&rdy, Ready{Node: 1, ShardLen: 5000, PointTag: PointScalar})

	return []struct {
		Name  string
		Bytes []byte
	}{
		{"stream framing", []byte{3, 0, 0, 0, 'a', 'b', 'c'}},
		{"register", reg.Bytes()},
		{"assign", EncodeAssign(Assign{
			ID: 1, K: 2, Seed: 7,
			Addrs: []string{"127.0.0.1:9000", "127.0.0.1:9001"},
		})},
		{"mesh hello", hello.Bytes()},
		{"mesh round frame", mesh.Bytes()},
		{"vector point", EncodeVectorPoint(points.Vector{0.5, 1.5})},
		{"query", encQueryTagged(300, q)},
		{"vector batch query", encQueryTagged(301, vq)},
		{"dispatch", encDispatch(1, q)},
		{"ready", rdy.Bytes()},
		{"summary", EncodeShardSummary(ShardSummary{Node: 1, Has: true, Radius: 0.25, Center: EncodeScalarPoint(12345)})},
		{"empty summary", EncodeShardSummary(ShardSummary{Node: 2})},
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
			Epoch: 1, Node: 0, Rounds: 26, Messages: 44, Bytes: 745,
			IsLeader: true,
			Queries: []NodeQueryResult{{
				Winners:    []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}},
				Survivors:  20,
				Iterations: 4,
			}},
		})},
		{"node error", EncodeNodeError(NodeError{Epoch: 1, Origin: true, LostPeer: -1, Msg: "boom"})},
		{"fatal node error", EncodeNodeError(NodeError{Epoch: 7, Fatal: true, LostPeer: 2, Msg: "lost peer 2"})},
		{"shutdown", []byte{byte(KindShutdown)}},
		{"rejoin assign", EncodeAssign(Assign{
			ID: 1, K: 2, Seed: 7, Epoch: 42,
			Present: []int{0},
			Addrs:   []string{"127.0.0.1:9000", "127.0.0.1:9002"},
		})},
		{"reply", encReplyTagged(300, Reply{
			Rounds: 26, Messages: 44, Bytes: 745, Leader: 0,
			Results: []QueryReply{{
				QueryOutcome: QueryOutcome{
					Boundary: keys.Key{Dist: 5, ID: 2}, Survivors: 20, Iterations: 4,
				},
				Items: []points.Item{{Key: keys.Key{Dist: 3, ID: 1}, Label: 2}},
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
		r := NewReader(encDispatch(9, q))
		if kind := r.Kind(); kind != KindDispatch {
			t.Fatalf("kind %d", kind)
		}
		if epoch := r.Varint(); epoch != 9 {
			t.Fatalf("epoch %d", epoch)
		}
		if _, err := DecodeQuery(r); err != nil {
			t.Fatal(err)
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
			Epoch: 3, Node: 2, Rounds: 7, Messages: 11, Bytes: 400,
			IsLeader: true,
			Queries: []NodeQueryResult{
				{
					Winners:   []points.Item{{Key: keys.Key{Dist: 9, ID: 4}, Label: 1.5}},
					Survivors: 33, FellBack: true, Iterations: 5,
				},
				{Survivors: 1, Iterations: 2},
			},
		}
		r := NewReader(encNodeResult(nr))
		if kind := r.Kind(); kind != KindResult {
			t.Fatalf("kind %d", kind)
		}
		got, err := DecodeNodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != nr.Epoch || got.Node != nr.Node || got.Rounds != nr.Rounds ||
			got.Messages != nr.Messages || got.Bytes != nr.Bytes || !got.IsLeader ||
			len(got.Queries) != 2 {
			t.Fatalf("node result round trip: %+v", got)
		}
		for i, want := range nr.Queries {
			g := got.Queries[i]
			if len(g.Winners) != len(want.Winners) || (len(want.Winners) == 1 && g.Winners[0] != want.Winners[0]) ||
				g.Survivors != want.Survivors || g.FellBack != want.FellBack || g.Iterations != want.Iterations {
				t.Fatalf("node result query %d: %+v", i, g)
			}
		}
	}
	{
		// A follower (non-leader) result omits the per-query leader fields.
		nr := NodeResult{
			Epoch: 4, Node: 1, Rounds: 3, Messages: 6, Bytes: 128,
			Queries: []NodeQueryResult{
				{Winners: []points.Item{{Key: keys.Key{Dist: 2, ID: 9}, Label: 1}}},
				{},
			},
		}
		r := NewReader(encNodeResult(nr))
		r.U8()
		got, err := DecodeNodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.IsLeader || len(got.Queries) != 2 || len(got.Queries[0].Winners) != 1 ||
			got.Queries[0].Winners[0] != nr.Queries[0].Winners[0] {
			t.Fatalf("follower result round trip: %+v", got)
		}
	}
	{
		rep := Reply{
			Rounds: 6, Messages: 13, Bytes: 512, Leader: 1,
			Results: []QueryReply{
				{
					QueryOutcome: QueryOutcome{
						Boundary: keys.Key{Dist: 77, ID: 8}, Survivors: 40, FellBack: true,
						Iterations: 2,
					},
					Value: 3.25,
					Items: []points.Item{{Key: keys.Key{Dist: 1, ID: 2}, Label: 0}},
				},
				{
					QueryOutcome: QueryOutcome{Boundary: keys.Key{Dist: 80, ID: 9}, Iterations: 1},
				},
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
		if got.Rounds != rep.Rounds || got.Leader != rep.Leader || len(got.Results) != 2 {
			t.Fatalf("reply round trip: %+v", got)
		}
		if got.Results[0].QueryOutcome != rep.Results[0].QueryOutcome || got.Results[0].Value != rep.Results[0].Value ||
			len(got.Results[0].Items) != 1 || got.Results[0].Items[0] != rep.Results[0].Items[0] {
			t.Fatalf("reply query 0: %+v", got.Results[0])
		}
		if got.Results[1].QueryOutcome != rep.Results[1].QueryOutcome || len(got.Results[1].Items) != 0 {
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
		Rounds: 3, Messages: 5, Bytes: 99, Leader: 1,
		Results: []QueryReply{{
			QueryOutcome: QueryOutcome{Boundary: keys.Key{Dist: 8, ID: 3}, Survivors: 12, Iterations: 2},
			Items:        []points.Item{{Key: keys.Key{Dist: 4, ID: 9}, Label: 1}},
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
		got.Results[0].QueryOutcome != rep.Results[0].QueryOutcome ||
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
	// The client query and both dispatch kinds share one query body
	// encoding: behind kind+tag and kind+epoch the bytes are identical, and
	// a direct dispatch appends only its bound list (here empty, one 00).
	body := hexBytes(encQueryTagged(1, q)[2:])
	if hexBytes(encDispatch(1, q)[2:]) != body || hexBytes(encDispatchDirect(1, q, nil)[2:]) != body+" 00" {
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
