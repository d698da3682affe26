// Package wire is the binary message codec shared by the in-process
// simulator and the TCP runtime.
//
// Every protocol message is marshalled to bytes before it crosses a link, for
// two reasons: the simulator's bandwidth accounting must charge the size a
// real implementation would pay, and the TCP runtime ships the very same
// bytes. Encoding is little-endian with unsigned LEB128 varints for counts.
//
// Besides the Writer/Reader primitives and the stream framing, the package
// defines the typed frames of the TCP serving protocol (frames.go):
// rendezvous, query dispatch, per-epoch results, and the client-facing
// query/reply pair. The byte-level layout of every frame is specified in
// docs/PROTOCOL.md, whose hex examples are pinned to this codec by
// TestProtocolDocExamples.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"distknn/internal/keys"
	"distknn/internal/points"
)

// ErrTruncated is reported when a reader runs out of bytes mid-value.
var ErrTruncated = errors.New("wire: truncated message")

// errOverlongVarint is reported for a varint longer than its value's minimal
// encoding, which would give one value two encodings.
var errOverlongVarint = errors.New("wire: non-minimal varint")

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded message. The slice aliases the writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the encoded size in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reset empties the writer, keeping its capacity for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Kind appends a frame-kind byte.
func (w *Writer) Kind(k Kind) { w.U8(uint8(k)) }

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Varint appends an unsigned LEB128 varint.
func (w *Writer) Varint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// VarintLen is the number of bytes Varint appends for v.
func VarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a varint-length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Varint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Key appends a selection key (16 bytes).
func (w *Writer) Key(k keys.Key) {
	w.U64(k.Dist)
	w.U64(k.ID)
}

// Item appends a key + label (24 bytes).
func (w *Writer) Item(it points.Item) {
	w.Key(it.Key)
	w.F64(it.Label)
}

// Raw appends bytes verbatim (for nesting pre-encoded payloads).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Keys appends a length-prefixed key slice.
func (w *Writer) Keys(ks []keys.Key) {
	w.Varint(uint64(len(ks)))
	for _, k := range ks {
		w.Key(k)
	}
}

// Items appends a length-prefixed item slice.
func (w *Writer) Items(its []points.Item) {
	w.Varint(uint64(len(its)))
	for _, it := range its {
		w.Item(it)
	}
}

// Reader decodes a message produced by Writer. Errors are sticky: after the
// first failure every read returns zero values and Err reports the cause.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded message.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// End closes the decoding of a whole message: it returns the first decoding
// error, or an error when bytes remain unread, so a message in another
// layout cannot decode as a shorter valid one.
func (r *Reader) End() error {
	if r.err == nil && r.Remaining() != 0 {
		r.fail(fmt.Errorf("wire: %d trailing bytes", r.Remaining()))
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Kind reads a frame-kind byte.
func (r *Reader) Kind() Kind { return Kind(r.U8()) }

// U64 reads a fixed-width uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Varint reads an unsigned LEB128 varint in its minimal encoding, the one
// Writer.Varint produces.
func (r *Reader) Varint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n != VarintLen(v) {
		r.fail(errOverlongVarint)
		return 0
	}
	r.off += n
	return v
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Raw reads n bytes verbatim. The returned slice aliases the input buffer.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// String reads a varint-length-prefixed UTF-8 string.
func (r *Reader) String() string {
	n := r.Varint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.fail(fmt.Errorf("wire: string length %d exceeds payload", n))
		return ""
	}
	return string(r.Raw(int(n)))
}

// Key reads a selection key.
func (r *Reader) Key() keys.Key {
	return keys.Key{Dist: r.U64(), ID: r.U64()}
}

// Item reads a key + label.
func (r *Reader) Item() points.Item {
	return points.Item{Key: r.Key(), Label: r.F64()}
}

// Keys reads a length-prefixed key slice.
func (r *Reader) Keys() []keys.Key {
	n := r.Varint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()/16) {
		r.fail(fmt.Errorf("wire: key slice length %d exceeds payload", n))
		return nil
	}
	out := make([]keys.Key, n)
	for i := range out {
		out[i] = r.Key()
	}
	return out
}

// Items reads a length-prefixed item slice.
func (r *Reader) Items() []points.Item {
	n := r.Varint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()/24) {
		r.fail(fmt.Errorf("wire: item slice length %d exceeds payload", n))
		return nil
	}
	out := make([]points.Item, n)
	for i := range out {
		out[i] = r.Item()
	}
	return out
}

// ---------------------------------------------------------------------------
// Stream framing (TCP runtime)
// ---------------------------------------------------------------------------

// MaxFrame bounds a single frame to keep a malformed peer from forcing an
// arbitrarily large allocation.
const MaxFrame = 64 << 20

// maxPooledCap bounds the capacity of buffers retained by the pools below.
// A rare giant frame (up to MaxFrame) is served by a one-off allocation
// instead of pinning megabytes inside a pool forever.
const maxPooledCap = 1 << 20

// Pool traffic counters. wire stays telemetry-agnostic (it must not
// import the obs package it serves), so these are plain atomics read
// through PoolStats and re-exported by the serving layers as callback
// gauges. gets - news = pool hits.
var (
	writerPoolGets atomic.Int64
	writerPoolNews atomic.Int64
	framePoolGets  atomic.Int64
	framePoolNews  atomic.Int64
)

// PoolStats reports cumulative pool traffic: checkout counts and the
// subset that had to allocate (pool misses) for the writer and frame
// buffer pools.
func PoolStats() (writerGets, writerNews, frameGets, frameNews int64) {
	return writerPoolGets.Load(), writerPoolNews.Load(),
		framePoolGets.Load(), framePoolNews.Load()
}

// writerPool recycles Writers across frames. Encoding a message into a
// pooled writer and flushing it with EndFrame is the zero-allocation
// counterpart of Encode* + WriteFrame.
var writerPool = sync.Pool{New: func() any {
	writerPoolNews.Add(1)
	return new(Writer)
}}

// GetWriter returns an empty Writer from the pool. Release it with
// PutWriter once the encoded bytes are no longer referenced; the caller
// must not retain w.Bytes() past that point.
func GetWriter() *Writer {
	writerPoolGets.Add(1)
	return writerPool.Get().(*Writer)
}

// PutWriter resets w and returns it to the pool.
func PutWriter(w *Writer) {
	if cap(w.buf) > maxPooledCap {
		return
	}
	w.Reset()
	writerPool.Put(w)
}

// BeginFrame reserves the 4-byte stream-framing header at the front of an
// empty writer. Encode the payload with the ordinary Writer methods, then
// flush header and payload in one Write with EndFrame — no copy, no
// per-frame allocation when the writer is pooled.
func (w *Writer) BeginFrame() {
	w.buf = append(w.buf, 0, 0, 0, 0)
}

// EndFrame patches the length header reserved by BeginFrame and writes the
// whole frame to dst in a single Write (one syscall on a socket, and no
// torn header/body interleaving from concurrent writers). The writer still
// holds the frame afterwards; Reset or PutWriter it before reuse.
func (w *Writer) EndFrame(dst io.Writer) error {
	if len(w.buf) < 4 {
		return errors.New("wire: EndFrame without BeginFrame")
	}
	frame, err := w.FinishFrame()
	if err != nil {
		return err
	}
	_, err = dst.Write(frame)
	return err
}

// FinishFrame patches the length header reserved by BeginFrame and returns
// the complete frame without writing it, for callers that fan one frame out
// to several destinations. The bytes alias the writer: write them everywhere
// before Reset or PutWriter.
func (w *Writer) FinishFrame() ([]byte, error) {
	if len(w.buf) < 4 {
		return nil, errors.New("wire: FinishFrame without BeginFrame")
	}
	payload := len(w.buf) - 4
	if payload > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", payload)
	}
	binary.LittleEndian.PutUint32(w.buf, uint32(payload))
	return w.buf, nil
}

// WriteFrame writes a length-prefixed payload to w. Header and payload go
// out in a single Write, so a frame over a socket costs one syscall (and
// cannot be torn between header and body by a concurrent writer). Every
// caller writes a cold frame (register, assign, deny, ready, shutdown), so
// the frame is staged in a local Writer; hot paths encode into a pooled
// Writer and flush it with EndFrame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame { // refused before it is copied
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	fw := Writer{buf: make([]byte, 0, 4+len(payload))}
	fw.BeginFrame()
	fw.Raw(payload)
	return fw.EndFrame(w)
}

// ReadFrame reads one length-prefixed payload from r, allocating a fresh
// buffer (none at all for an empty frame). Hot loops should hold a
// per-connection buffer and use ReadFrameInto instead.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// frameStep is how far ahead of the bytes already received ReadFrameInto
// may allocate for a frame that outgrows its buffer: at most
// max(frameStep, bytes received). Every frame of up to frameStep bytes is
// read with one allocation of its exact size, and a peer that sends a
// header alone pins frameStep bytes, not the MaxFrame its length word may
// claim.
const frameStep = 64 << 10

// ReadFrameInto reads one length-prefixed payload from r into buf,
// growing it only when the frame exceeds its capacity, and then only as
// the payload arrives (see frameStep). The returned slice aliases (a
// possibly grown) buf; pass it back as the next call's buf to amortize the
// allocation to zero. The caller owns the buffer: reuse it only once the
// previous payload is fully consumed or copied.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into the reusable buffer itself (and overwritten
	// by the payload right after): a stack array would escape through the
	// io.Reader interface and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds limit", n)
	}
	size := int(n)
	if cap(buf) < size {
		buf = make([]byte, 0, min(size, frameStep))
	}
	payload := buf[:0]
	for len(payload) < size {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(size, 2*len(payload)))
			copy(grown, payload)
			payload = grown
		}
		got, err := io.ReadFull(r, payload[len(payload):min(size, cap(payload))])
		payload = payload[:len(payload)+got]
		if err != nil {
			if err == io.EOF && len(payload) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// framePool recycles frame payload buffers for paths that hand a decoded
// frame to another goroutine (the decoded view aliases the payload, so a
// simple per-connection buffer cannot be reused until that work finishes).
// The reader checks a buffer out, the consumer returns it when done.
var framePool = sync.Pool{New: func() any {
	framePoolNews.Add(1)
	return new([]byte)
}}

// GetFrameBuf checks a reusable frame buffer out of the pool. Pass it to
// ReadFrameInto, hand the payload (which aliases it) to the consumer, and
// have the consumer release it with PutFrameBuf when the decoded frame is
// dead.
func GetFrameBuf() []byte {
	framePoolGets.Add(1)
	return *framePool.Get().(*[]byte)
}

// PutFrameBuf returns a buffer obtained from GetFrameBuf (possibly grown
// by ReadFrameInto) to the pool.
func PutFrameBuf(buf []byte) {
	if cap(buf) > maxPooledCap {
		return
	}
	buf = buf[:0]
	framePool.Put(&buf)
}
