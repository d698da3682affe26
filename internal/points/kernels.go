package points

import (
	"reflect"
	"sync"

	"distknn/internal/keys"
)

// Batch is the block form of a Metric: it writes out[i] = metric(pts[i], q)
// for every i, and len(out) must be at least len(pts). The local top-ℓ
// stage calls a Batch once per block of points instead of a Metric once per
// point, which moves the func-value call out of the per-point loop and, for
// the kernels written by hand below, lets the per-pair arithmetic inline
// into that loop.
type Batch[P any] func(pts []P, q P, out []uint64)

// BatchOf returns the batch kernel of m: the hand-written one when m is
// ScalarMetric, Hamming or L2, and otherwise an adaptor that calls m per
// point, so any metric — shipped or user-supplied — has one.
//
// A shipped metric is recognised by its code pointer, because a func value
// carries no other identity. A miss (a closure wrapping L2, say) costs
// speed only: every kernel, adaptor included, produces out[i] ==
// m(pts[i], q) bit for bit.
func BatchOf[P any](m Metric[P]) Batch[P] {
	var hand any
	switch reflect.ValueOf(m).Pointer() {
	case scalarMetricPC:
		hand = Batch[Scalar](scalarBatch)
	case hammingPC:
		hand = Batch[BitVector](hammingBatch)
	case l2PC:
		hand = Batch[Vector](l2Batch)
	}
	if b, ok := hand.(Batch[P]); ok {
		return b
	}
	return func(pts []P, q P, out []uint64) {
		out = out[:len(pts)]
		for i := range pts {
			out[i] = m(pts[i], q)
		}
	}
}

var (
	scalarMetricPC = reflect.ValueOf(ScalarMetric).Pointer()
	hammingPC      = reflect.ValueOf(Hamming).Pointer()
	l2PC           = reflect.ValueOf(L2).Pointer()
)

func scalarBatch(pts []Scalar, q Scalar, out []uint64) {
	out = out[:len(pts)]
	for i, p := range pts {
		out[i] = ScalarMetric(p, q)
	}
}

func hammingBatch(pts []BitVector, q BitVector, out []uint64) {
	out = out[:len(pts)]
	for i, p := range pts {
		out[i] = Hamming(p, q)
	}
}

// l2Batch repeats L2's loop rather than calling it: L2 is past the
// compiler's inlining budget, and at the low dimensions the k-center and
// medoid passes run at, the call costs as much as the arithmetic. The adds
// are L2's, in L2's order, into one accumulator — see the comment there.
func l2Batch(pts []Vector, q Vector, out []uint64) {
	out = out[:len(pts)]
	for i, a := range pts {
		b := q[:len(a)]
		var sum float64
		j := 0
		for ; j+4 <= len(a); j += 4 {
			d0 := a[j] - b[j]
			sum += d0 * d0
			d1 := a[j+1] - b[j+1]
			sum += d1 * d1
			d2 := a[j+2] - b[j+2]
			sum += d2 * d2
			d3 := a[j+3] - b[j+3]
			sum += d3 * d3
		}
		for ; j < len(a); j++ {
			d := a[j] - b[j]
			sum += d * d
		}
		out[i] = keys.MustEncodeFloat(sum)
	}
}

// scanBlock is how many distances ForBlocks computes per kernel call: 4 KiB
// of uint64s, small enough to stay in L1 between the kernel that writes
// them and the visitor that reads them, large enough that the two indirect
// calls per block vanish against the block's arithmetic.
const scanBlock = 512

// scanBufs recycles ForBlocks' distance blocks. A buffer handed to a
// func-valued kernel cannot live on the caller's stack (escape analysis
// must assume the callee keeps it), so concurrent passes check one out each
// instead of allocating 4 KiB per query.
var scanBufs = sync.Pool{New: func() any { return new([scanBlock]uint64) }}

// ForBlocks is the block pass every consumer of a kernel runs: it measures
// pts against q one block at a time and hands visit each block's distances
// — dist[i] belongs to pts[lo+i] — which are valid only during the call.
func (b Batch[P]) ForBlocks(pts []P, q P, visit func(lo int, dist []uint64)) {
	buf := scanBufs.Get().(*[scanBlock]uint64)
	for lo := 0; lo < len(pts); lo += scanBlock {
		block := pts[lo:min(lo+scanBlock, len(pts))]
		b(block, q, buf[:])
		visit(lo, buf[:len(block)])
	}
	scanBufs.Put(buf)
}
