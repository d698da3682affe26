package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
	"testing/quick"

	"distknn/internal/keys"
	"distknn/internal/points"
)

func TestRoundTripScalars(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U64(math.MaxUint64)
	w.Varint(300)
	w.F64(3.14)
	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Varint(); got != 300 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.F64(); got != 3.14 {
		t.Errorf("F64 = %g", got)
	}
	if r.Err() != nil {
		t.Errorf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

func TestRoundTripKeyAndItem(t *testing.T) {
	k := keys.Key{Dist: 123, ID: 456}
	it := points.Item{Key: k, Label: -2.5}
	var w Writer
	w.Key(k)
	w.Item(it)
	r := NewReader(w.Bytes())
	if got := r.Key(); got != k {
		t.Errorf("Key = %v", got)
	}
	if got := r.Item(); got != it {
		t.Errorf("Item = %+v", got)
	}
}

func TestRoundTripSlices(t *testing.T) {
	ks := []keys.Key{{Dist: 1, ID: 2}, {Dist: 3, ID: 4}}
	its := []points.Item{{Key: keys.Key{Dist: 5, ID: 6}, Label: 1}}
	var w Writer
	w.Keys(ks)
	w.Items(its)
	w.Keys(nil)
	r := NewReader(w.Bytes())
	gotK := r.Keys()
	gotI := r.Items()
	gotEmpty := r.Keys()
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if len(gotK) != 2 || gotK[0] != ks[0] || gotK[1] != ks[1] {
		t.Errorf("Keys = %v", gotK)
	}
	if len(gotI) != 1 || gotI[0] != its[0] {
		t.Errorf("Items = %v", gotI)
	}
	if len(gotEmpty) != 0 {
		t.Errorf("empty Keys = %v", gotEmpty)
	}
}

func TestTruncatedReads(t *testing.T) {
	var w Writer
	w.U64(42)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		if r.Err() == nil {
			t.Errorf("cut=%d: expected truncation error", cut)
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	r.U64() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads return zero values and keep the first error.
	if got := r.U8(); got != 0 {
		t.Errorf("read after error returned %d", got)
	}
	if r.Err() != first {
		t.Errorf("error not sticky")
	}
}

func TestMaliciousLengthPrefixRejected(t *testing.T) {
	var w Writer
	w.Varint(1 << 40) // claims 2^40 keys in an empty payload
	r := NewReader(w.Bytes())
	if got := r.Keys(); got != nil || r.Err() == nil {
		t.Errorf("oversized length prefix must be rejected, got %v err %v", got, r.Err())
	}
	var w2 Writer
	w2.Varint(1 << 40)
	r2 := NewReader(w2.Bytes())
	if got := r2.Items(); got != nil || r2.Err() == nil {
		t.Errorf("oversized item prefix must be rejected")
	}
}

// Property: arbitrary key/item sequences round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	prop := func(dists, ids []uint64, labels []float64) bool {
		n := len(dists)
		if len(ids) < n {
			n = len(ids)
		}
		if len(labels) < n {
			n = len(labels)
		}
		items := make([]points.Item, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(labels[i]) {
				labels[i] = 0
			}
			items[i] = points.Item{Key: keys.Key{Dist: dists[i], ID: ids[i]}, Label: labels[i]}
		}
		var w Writer
		w.Items(items)
		r := NewReader(w.Bytes())
		got := r.Items()
		if r.Err() != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("round-trip property failed: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Errorf("oversized outgoing frame must fail")
	}
	// Forge a header claiming a huge frame.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Errorf("oversized incoming frame must fail")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Errorf("truncated payload must fail")
	}
}

// TestReadFrameHeaderOnlyBoundsAllocation pins the read-side memory bound:
// a peer that sends only a header claiming MaxFrame bytes, and then
// nothing, costs the reader at most frameStep bytes, not the 64 MiB the
// header claims.
func TestReadFrameHeaderOnlyBoundsAllocation(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("header-only frame: err %v, want EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a header-only MaxFrame stream allocated %d bytes", grew)
	}
}

// TestReadFrameGrowsAsPayloadArrives reads a frame several frameSteps long
// a byte at a time, into a buffer too small for it, and cut short: the
// whole frame arrives intact, and a frame cut mid-payload is an unexpected
// EOF, as a truncated small frame is.
func TestReadFrameGrowsAsPayloadArrives(t *testing.T) {
	payload := make([]byte, 5*frameStep+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var framed bytes.Buffer
	if err := WriteFrame(&framed, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(iotest.OneByteReader(bytes.NewReader(framed.Bytes())), make([]byte, 0, 100))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("grown frame: %d bytes, %v; want %d bytes intact", len(got), err, len(payload))
	}
	for _, cut := range []int{4 + 1, 4 + frameStep, 4 + 3*frameStep + 1} {
		if _, err := ReadFrame(bytes.NewReader(framed.Bytes()[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("frame cut after %d payload bytes: err %v, want unexpected EOF", cut-4, err)
		}
	}
}

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range [][]byte{bytes.Repeat([]byte{7}, 64), {1, 2}, {}, bytes.Repeat([]byte{9}, 128)} {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	scratch, err := ReadFrameInto(&buf, nil)
	if err != nil || len(scratch) != 64 {
		t.Fatalf("first frame: %d bytes, %v", len(scratch), err)
	}
	first := &scratch[0]
	// The 2-byte and empty frames must reuse the 64-byte buffer in place.
	scratch2, err := ReadFrameInto(&buf, scratch)
	if err != nil || len(scratch2) != 2 {
		t.Fatalf("second frame: %d bytes, %v", len(scratch2), err)
	}
	if &scratch2[0] != first {
		t.Errorf("small frame did not reuse the buffer")
	}
	empty, err := ReadFrameInto(&buf, scratch2)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty frame: %d bytes, %v", len(empty), err)
	}
	// A larger frame grows the buffer.
	big, err := ReadFrameInto(&buf, empty)
	if err != nil || len(big) != 128 || big[0] != 9 {
		t.Fatalf("grown frame: %d bytes, %v", len(big), err)
	}
}

func TestWriterFrameBuild(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.BeginFrame()
	w.U8(42)
	w.String("hello")
	var buf bytes.Buffer
	if err := w.EndFrame(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(payload)
	if got := r.U8(); got != 42 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
	// An empty payload is a legal frame.
	w.Reset()
	w.BeginFrame()
	buf.Reset()
	if err := w.EndFrame(&buf); err != nil {
		t.Fatal(err)
	}
	if p, err := ReadFrame(&buf); err != nil || len(p) != 0 {
		t.Errorf("empty frame: %d bytes, %v", len(p), err)
	}
	// EndFrame without BeginFrame is an error, not a corrupt header.
	w.Reset()
	if err := w.EndFrame(&buf); err == nil {
		t.Errorf("EndFrame without BeginFrame must fail")
	}
}

func TestFrameBufPool(t *testing.T) {
	buf := GetFrameBuf()
	var stream bytes.Buffer
	if err := WriteFrame(&stream, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrameInto(&stream, buf)
	if err != nil || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("payload %v, %v", payload, err)
	}
	PutFrameBuf(payload)
	// Oversized buffers are dropped rather than pinned in the pool.
	PutFrameBuf(make([]byte, 2<<20))
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.U64(7)
	w.U64(9)
	c := cap(w.Bytes())
	w.Reset()
	if w.Len() != 0 || cap(w.Bytes()) != c {
		t.Errorf("Reset lost capacity: len %d cap %d, want len 0 cap %d", w.Len(), cap(w.Bytes()), c)
	}
	w.U64(5)
	if r := NewReader(w.Bytes()); r.U64() != 5 || r.Remaining() != 0 {
		t.Errorf("writer after Reset holds %x, want only the new value", w.Bytes())
	}
}

// TestDecodeReadyRejectsShardBeyondInt64 pins the ready decoder's range
// check: a shard length of 2⁶⁴−1 (the varint ff ff ff ff ff ff ff ff ff 01)
// would read as −1 and shrink the global count the frontend checks ℓ
// against.
func TestDecodeReadyRejectsShardBeyondInt64(t *testing.T) {
	body := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, PointScalar, 0}
	if rdy, err := DecodeReady(NewReader(body)); err == nil {
		t.Fatalf("decoded %+v from a shard length of 2^64-1, want an error", rdy)
	}
	body = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, PointScalar, 0}
	if rdy, err := DecodeReady(NewReader(body)); err != nil || rdy.ShardLen != math.MaxInt64 {
		t.Fatalf("shard length 2^63-1: got %+v, %v", rdy, err)
	}
}

// TestDecodeReadyRadius pins the radius contract of the ready report's
// summary: any non-negative radius, +Inf included, is accepted — a node
// whose farthest distance key decodes to +Inf sends it, and the admission
// test then admits that seat to every query, which keeps pruning sound —
// while a negative or NaN radius is refused.
func TestDecodeReadyRadius(t *testing.T) {
	for _, tc := range []struct {
		radius float64
		ok     bool
	}{{0.25, true}, {math.Inf(1), true}, {-1, false}, {math.NaN(), false}} {
		enc := encReady(Ready{ShardLen: 3, PointTag: PointScalar, Summary: ShardSummary{
			Has: true, Radius: tc.radius, Center: EncodeScalarPoint(7),
		}})
		r := NewReader(enc)
		r.Kind()
		rdy, err := DecodeReady(r)
		if (err == nil) != tc.ok {
			t.Errorf("radius %g: err %v, want accepted %v", tc.radius, err, tc.ok)
		}
		if tc.ok && math.Float64bits(rdy.Summary.Radius) != math.Float64bits(tc.radius) {
			t.Errorf("radius %g decoded as %g", tc.radius, rdy.Summary.Radius)
		}
	}
}

// TestDecodersRejectRetiredLayouts pins the end-of-frame check: frames in
// a retired layout are refused instead of decoding as a shorter valid
// frame. Two retired ok replies: one carried bytes and leader after
// messages and per-query survivors, fellBack and iterations, the next only
// the leader. Today's layout reads the byte after messages as the count, so
// each is an empty batch followed by trailing bytes. The ready frame
// carried a node id before the shard size.
func TestDecodersRejectRetiredLayouts(t *testing.T) {
	oldReply := []byte{0x00, 0x01, 0x02, 0x00, 0x00, 0x01, 0x05, 0, 0, 0, 0, 0, 0, 0, 0x02, 0, 0, 0, 0, 0, 0, 0,
		0x00, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x03, 0, 0, 0, 0, 0, 0, 0, 0x01, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0x40}
	// The previous layout's documented example: rounds 1, messages 2,
	// leader 0, one query with boundary (5, 2) and one item.
	leaderReply := []byte{0x00, 0x01, 0x02, 0x00, 0x01, 0x05, 0, 0, 0, 0, 0, 0, 0, 0x02, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x03, 0, 0, 0, 0, 0, 0, 0, 0x01, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0x40}
	for _, old := range [][]byte{oldReply, leaderReply} {
		if rep, err := DecodeReply(NewReader(old)); err == nil {
			t.Errorf("a reply in a retired layout (% x) decoded as %+v", old, rep)
		}
	}
	// Node 1, 2 points, scalar tag, then has 0: the retired ready layout.
	if rdy, err := DecodeReady(NewReader([]byte{0x01, 0x02, PointScalar, 0x00})); err == nil {
		t.Errorf("a ready frame in the retired layout decoded as %+v", rdy)
	}
}
