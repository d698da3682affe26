package wire

import (
	"fmt"

	"distknn/internal/points"
)

// A PointCodec translates one point type to and from its tagged wire
// encoding. The serving stack is generic over this type: the client side
// (RemoteCluster) uses Tag and Encode to build queries, the node side uses
// Decode to recover the typed point before running an epoch, and the
// frontend matches Tag without ever understanding the bytes. Codecs for the
// two served encodings are ScalarCodec and VectorCodec; adding a point
// type to the wire means adding a tag constant and a codec, nothing else in
// the transport changes.
type PointCodec[P any] struct {
	// Tag is the wire tag (PointScalar, PointVector, …) this codec speaks.
	Tag uint8
	// Encode serializes one point into a Query point payload.
	Encode func(p P) []byte
	// Decode parses a point payload. It must reject trailing garbage so a
	// corrupt frame cannot silently truncate into a valid point.
	Decode func(b []byte) (P, error)
}

// ScalarCodec is the PointScalar codec: one U64 value.
var ScalarCodec = PointCodec[points.Scalar]{
	Tag:    PointScalar,
	Encode: func(p points.Scalar) []byte { return EncodeScalarPoint(uint64(p)) },
	Decode: func(b []byte) (points.Scalar, error) {
		v, err := DecodeScalarPoint(b)
		return points.Scalar(v), err
	},
}

// VectorCodec is the PointVector codec: Varint dimension, then dim × F64.
var VectorCodec = PointCodec[points.Vector]{
	Tag:    PointVector,
	Encode: EncodeVectorPoint,
	Decode: DecodeVectorPoint,
}

// EncodeScalarPoint encodes a scalar query point for a Query's point payload.
func EncodeScalarPoint(v uint64) []byte {
	var w Writer
	w.U64(v)
	return w.Bytes()
}

// DecodeScalarPoint decodes a PointScalar payload.
func DecodeScalarPoint(p []byte) (uint64, error) {
	r := NewReader(p)
	v := r.U64()
	if err := r.End(); err != nil {
		return 0, err
	}
	return v, nil
}

// EncodeVectorPoint encodes a d-dimensional query point for a Query's point
// payload: Varint dim, then dim × F64 coordinates.
func EncodeVectorPoint(v points.Vector) []byte {
	var w Writer
	w.Varint(uint64(len(v)))
	for _, x := range v {
		w.F64(x)
	}
	return w.Bytes()
}

// DecodeVectorPoint decodes a PointVector payload.
func DecodeVectorPoint(p []byte) (points.Vector, error) {
	r := NewReader(p)
	dim := r.Varint()
	if r.Err() == nil && dim > uint64(r.Remaining()/8) {
		return nil, fmt.Errorf("wire: vector dimension %d exceeds payload", dim)
	}
	v := make(points.Vector, dim)
	for i := range v {
		v[i] = r.F64()
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return v, nil
}
