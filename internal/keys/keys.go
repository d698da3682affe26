// Package keys defines the totally ordered comparison universe used by every
// algorithm in this repository.
//
// The paper's algorithms are comparison-based: machines never exchange raw
// (possibly high-dimensional) points, only O(log n)-bit values. A value is a
// Key — the pair (distance to the query, point ID). Distances are encoded as
// uint64 in an order-preserving way, and IDs break ties between points at
// equal distance (Section 2 of the paper: "choosing unique IDs also takes
// care of non-distinct points"). Keys compare lexicographically, so the key
// order is a strict total order even when many points are equidistant from
// the query.
package keys

import (
	"fmt"
	"math"
)

// Key is the (distance, id) pair the distributed algorithms select over.
// Dist is an order-preserving encoding of the true distance (see
// EncodeFloat; an integer distance is its own encoding); ID is unique
// across the whole input set.
type Key struct {
	Dist uint64
	ID   uint64
}

// Less reports whether a orders strictly before b, comparing by distance and
// breaking ties by ID.
func (a Key) Less(b Key) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// LessEq reports a ≤ b in the lexicographic key order.
func (a Key) LessEq(b Key) bool { return !b.Less(a) }

// Compare returns -1, 0 or +1 as a orders before, equal to, or after b.
func (a Key) Compare(b Key) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	default:
		return 0
	}
}

// String renders the key for traces and error messages.
func (a Key) String() string { return fmt.Sprintf("(d=%d,id=%d)", a.Dist, a.ID) }

// MinKey and MaxKey are the extreme values of the key order. They are used to
// initialize search boundaries; no real point may use ID 0 together with
// distance 0, and no real point may carry MaxKey, so both sentinels compare
// strictly against every realizable key in practice.
var (
	MinKey = Key{Dist: 0, ID: 0}
	MaxKey = Key{Dist: math.MaxUint64, ID: math.MaxUint64}
)

// EncodeFloat maps a non-negative float64 distance to a uint64 such that the
// numeric order of distances equals the integer order of the encodings.
//
// For non-negative IEEE-754 doubles the raw bit pattern is already monotonic
// (sign bit 0, exponent then mantissa in decreasing significance), so the
// encoding is simply the bit pattern. NaN is rejected because it has no place
// in a total order; negative inputs are rejected because metrics are
// non-negative by definition.
func EncodeFloat(d float64) (uint64, error) {
	if math.IsNaN(d) {
		return 0, fmt.Errorf("keys: cannot encode NaN distance")
	}
	if d < 0 {
		return 0, fmt.Errorf("keys: cannot encode negative distance %g", d)
	}
	return math.Float64bits(d), nil
}

// MustEncodeFloat is EncodeFloat for distances already known to be valid
// (e.g. produced by one of the points.Metric implementations). It panics on
// invalid input, which would indicate a bug in the metric, not user error.
func MustEncodeFloat(d float64) uint64 {
	u, err := EncodeFloat(d)
	if err != nil {
		panic(err)
	}
	return u
}

// DecodeFloat inverts EncodeFloat.
func DecodeFloat(u uint64) float64 { return math.Float64frombits(u) }
