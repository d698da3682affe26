package points

import (
	"math"
	"reflect"
	"sync"

	"distknn/internal/keys"
)

// Batch is the block form of a Metric: it writes out[i] = metric(pts[i], q)
// for every i, and len(out) must be at least len(pts). A pass over a shard
// calls a Batch once per block of points instead of a Metric once per
// point, which moves the func-value call out of the per-point loop and, for
// the kernels written by hand below, lets the per-pair arithmetic inline
// into that loop. The metric index's load-time passes and the top-ℓ
// adaptor (blockTopL) run on it; ScalarMetric's top-ℓ scan does not.
type Batch[P any] func(pts []P, q P, out []uint64)

// BatchOf returns the batch kernel of m: the hand-written one when m is
// ScalarMetric or L2, and otherwise an adaptor that calls m per
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
	l2PC           = reflect.ValueOf(L2).Pointer()
)

func scalarBatch(pts []Scalar, q Scalar, out []uint64) {
	out = out[:len(pts)]
	for i, p := range pts {
		out[i] = ScalarMetric(p, q)
	}
}

func l2Batch(pts []Vector, q Vector, out []uint64) {
	out = out[:len(pts)]
	for i, p := range pts {
		out[i] = keys.MustEncodeFloat(SqL2(p, q))
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

// ForBlocks is the block pass over a kernel: it measures pts against q one
// block at a time and hands visit each block's distances — dist[i] belongs
// to pts[lo+i] — which are valid only during the call. The metric index's
// load-time passes and the top-ℓ adaptor (blockTopL) run on it.
func (b Batch[P]) ForBlocks(pts []P, q P, visit func(lo int, dist []uint64)) {
	buf := scanBufs.Get().(*[scanBlock]uint64)
	for lo := 0; lo < len(pts); lo += scanBlock {
		block := pts[lo:min(lo+scanBlock, len(pts))]
		b(block, q, buf[:])
		visit(lo, buf[:len(block)])
	}
	scanBufs.Put(buf)
}

// topLScan is the body of a local top-ℓ pass: it offers s's points near q
// to top, whose ℓ and ceiling TopLItems has already set, and returns
// top.Sorted(). Every scan pushes exactly the keys that beat top's cut, so
// all of them return the same items.
type topLScan[P any] func(s *Set[P], q P, top TopL) []Item

// topLOf returns the top-ℓ scan of m: scalarTopL when m is ScalarMetric,
// recognised by its code pointer as BatchOf recognises it, and otherwise
// blockTopL, the adaptor that runs the set's batch kernel. A miss (a
// closure wrapping ScalarMetric, say) costs speed only.
func topLOf[P any](m Metric[P]) topLScan[P] {
	var hand any
	if reflect.ValueOf(m).Pointer() == scalarMetricPC {
		hand = topLScan[Scalar](scalarTopL)
	}
	if f, ok := hand.(topLScan[P]); ok {
		return f
	}
	return blockTopL[P]
}

// blockTopL is the top-ℓ scan for any metric: the set's batch kernel fills
// a block of distances, and each distance is compared with the current
// cutoff before anything else is read, so only the few points that beat it
// (about ℓ·ln(n/ℓ) on unordered data) are lowered to Items.
func blockTopL[P any](s *Set[P], q P, top TopL) []Item {
	cut := top.Cut()
	s.batch.ForBlocks(s.Pts, q, func(lo int, dist []uint64) {
		ids, labels := s.IDs[lo:lo+len(dist)], s.Labels[lo:lo+len(dist)]
		for i, d := range dist {
			if d > cut.Dist || (d == cut.Dist && ids[i] >= cut.ID) {
				continue
			}
			top.Push(Item{Key: keys.Key{Dist: d, ID: ids[i]}, Label: labels[i]})
			cut = top.Cut()
		}
	})
	return top.Sorted()
}

// scalarTopL is ScalarMetric's top-ℓ scan, one pass over the shard with no
// distance computed for most points: the cut's distance c is a window of
// values, [q−c, q+c] clamped to the Scalar range, and a point outside it
// cannot beat the cut. Shifted to start at 0, the window is one subtract
// and one unsigned compare per point (a point below lo wraps past the
// width). Only points inside it get the exact (distance, ID) test; each
// push narrows the cut and the window with it. The out-of-window case
// continues rather than wrapping the store in an if body, which measured
// twice as slow.
func scalarTopL(s *Set[Scalar], q Scalar, top TopL) []Item {
	cut := top.Cut()
	lo, width := scalarWindow(q, cut.Dist)
	ids, labels := s.IDs[:len(s.Pts)], s.Labels[:len(s.Pts)]
	for i, p := range s.Pts {
		if uint64(p)-lo > width {
			continue
		}
		d := ScalarMetric(p, q)
		if d > cut.Dist || (d == cut.Dist && ids[i] >= cut.ID) {
			continue
		}
		top.Push(Item{Key: keys.Key{Dist: d, ID: ids[i]}, Label: labels[i]})
		cut = top.Cut()
		lo, width = scalarWindow(q, cut.Dist)
	}
	return top.Sorted()
}

// scalarWindow returns the values within distance c of q as lo and
// width = hi − lo: p is within c iff p − lo ≤ width in uint64 arithmetic.
// Both ends are clamped, so neither q − c nor q + c wraps.
func scalarWindow(q Scalar, c uint64) (lo, width uint64) {
	lo = uint64(q) - min(c, uint64(q))
	hi := uint64(q) + min(c, math.MaxUint64-uint64(q))
	return lo, hi - lo
}
