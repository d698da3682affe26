package wire

import (
	"bytes"
	"io"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// The benchmarks below pin the zero-allocation claims of the frame path:
// pooled writers + EndFrame on the way out, ReadFrameInto on the way in.
// Run with -benchmem; the steady-state allocs/op of the framed paths must
// stay at (or within rounding of) zero.

func benchReply() Reply {
	items := make([]points.Item, 10)
	for i := range items {
		items[i] = points.Item{Key: keys.Key{Dist: uint64(i), ID: uint64(i)}, Label: 1}
	}
	return Reply{
		Rounds: 1, Messages: 4,
		Results: []QueryReply{{
			Boundary: items[9].Key,
			Items:    items,
		}},
	}
}

func BenchmarkWriteFrame(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 256)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload) + 4))
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrameInto(b *testing.B) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, bytes.Repeat([]byte{0xab}, 256)); err != nil {
		b.Fatal(err)
	}
	frame := stream.Bytes()
	rd := bytes.NewReader(frame)
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		payload, err := ReadFrameInto(rd, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = payload
	}
}

// BenchmarkQueryFramePath is the client's steady-state hot path: encode a
// tagged query into a pooled writer, frame it, read the frame back into a
// reused buffer and decode it. One query, zero garbage.
func BenchmarkQueryFramePath(b *testing.B) {
	q := Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: [][]byte{EncodeScalarPoint(12345)}}
	var readBuf []byte
	var decoded Query
	var stream bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := GetWriter()
		w.BeginFrame()
		AppendQueryTagged(w, uint64(i), q)
		if err := w.EndFrame(&stream); err != nil {
			b.Fatal(err)
		}
		PutWriter(w)

		payload, err := ReadFrameInto(&stream, readBuf)
		if err != nil {
			b.Fatal(err)
		}
		readBuf = payload
		r := NewReader(payload)
		if kind := r.Kind(); kind != KindQueryTagged {
			b.Fatalf("kind %d", kind)
		}
		if tag := r.Varint(); tag != uint64(i) {
			b.Fatalf("tag %d", tag)
		}
		if err := DecodeQueryInto(r, &decoded); err != nil {
			b.Fatal(err)
		}
		stream.Reset()
	}
}

// BenchmarkReplyFramePath is the frontend's side of the same loop: a
// pooled writer frames a tagged reply. (Decoding a Reply copies its item
// slices out by design — those allocations belong to the answer the
// caller keeps, not to the frame path — so this benchmark pins only the
// encode+frame side at zero.)
func BenchmarkReplyFramePath(b *testing.B) {
	rep := benchReply()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := GetWriter()
		w.BeginFrame()
		AppendReplyTagged(w, uint64(i), rep)
		if err := w.EndFrame(io.Discard); err != nil {
			b.Fatal(err)
		}
		PutWriter(w)
	}
}

// BenchmarkDirectDispatchFramePath is the pruned dispatch's wave encoding:
// a pooled writer frames one whole-batch KindDispatchDirect fan-out frame
// plus one bounded sub-batch frame of the same kind per iteration, the way a
// two-wave pruned batch builds them. The encode+frame side must stay at zero
// steady-state allocs/op, like the scatter path it reuses.
func BenchmarkDirectDispatchFramePath(b *testing.B) {
	pts := make([][]byte, 16)
	for i := range pts {
		pts[i] = EncodeScalarPoint(uint64(1000 * i))
	}
	q := Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: pts}
	subQ := Query{Op: OpKNN, L: 10, Tag: PointScalar, Points: pts[:5]}
	bounds := make([]keys.Key, len(subQ.Points))
	for i := range bounds {
		bounds[i] = keys.Key{Dist: uint64(100 * i), ID: uint64(i)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := GetWriter()
		w.BeginFrame()
		AppendDispatchDirect(w, uint64(i), q, nil)
		if _, err := w.FinishFrame(); err != nil {
			b.Fatal(err)
		}
		PutWriter(w)

		w = GetWriter()
		w.BeginFrame()
		AppendDispatchDirect(w, uint64(i), subQ, bounds)
		if err := w.EndFrame(io.Discard); err != nil {
			b.Fatal(err)
		}
		PutWriter(w)
	}
}

// BenchmarkEncodeReplyLegacy is the pre-pooling baseline for comparison:
// a fresh encode + copying WriteFrame per reply.
func BenchmarkEncodeReplyLegacy(b *testing.B) {
	rep := benchReply()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload := encReplyTagged(uint64(i), rep)
		buf := make([]byte, 4+len(payload))
		copy(buf[4:], payload)
		if _, err := io.Discard.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}
