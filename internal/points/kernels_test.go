package points

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"

	"distknn/internal/keys"
)

// refL2 is the straight-line reference the unrolled L2 must match
// bit-for-bit: same elements, same summation order.
func refL2(a, b Vector) uint64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return keys.MustEncodeFloat(sum)
}

func refHamming(a, b BitVector) uint64 {
	var n uint64
	for i := range a {
		n += uint64(bits.OnesCount64(a[i] ^ b[i]))
	}
	return n
}

// TestL2MatchesReference pins the unrolled kernel to the reference across
// every remainder lane (dims 0..9 cover all i mod 4 cases) and across
// magnitudes that stress floating-point rounding: if the unroll reordered
// a single addition, some low-order bit here would flip.
func TestL2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for dim := 0; dim <= 9; dim++ {
		for trial := 0; trial < 200; trial++ {
			a := make(Vector, dim)
			b := make(Vector, dim)
			for i := range a {
				// Mix huge and tiny magnitudes so addition order matters.
				scale := []float64{1e-8, 1, 1e8}[rng.IntN(3)]
				a[i] = (rng.Float64()*2 - 1) * scale
				b[i] = (rng.Float64()*2 - 1) * scale
			}
			if got, want := L2(a, b), refL2(a, b); got != want {
				t.Fatalf("dim %d: L2 = %d, reference = %d (a=%v b=%v)", dim, got, want, a, b)
			}
		}
	}
	for dim := 120; dim <= 131; dim++ {
		a := make(Vector, dim)
		b := make(Vector, dim)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if got, want := L2(a, b), refL2(a, b); got != want {
			t.Fatalf("dim %d: L2 = %d, reference = %d", dim, got, want)
		}
	}
}

func TestHammingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for words := 0; words <= 9; words++ {
		for trial := 0; trial < 100; trial++ {
			a := make(BitVector, words)
			b := make(BitVector, words)
			for i := range a {
				a[i], b[i] = rng.Uint64(), rng.Uint64()
			}
			if got, want := Hamming(a, b), refHamming(a, b); got != want {
				t.Fatalf("words %d: Hamming = %d, reference = %d", words, got, want)
			}
		}
	}
	// Saturated case: all bits differ.
	a := make(BitVector, 33)
	b := make(BitVector, 33)
	for i := range a {
		a[i] = ^b[i]
	}
	if got := Hamming(a, b); got != 33*64 {
		t.Fatalf("saturated Hamming = %d, want %d", got, 33*64)
	}
}

func benchVectors(dim int) (Vector, Vector) {
	rng := rand.New(rand.NewPCG(7, 9))
	a := make(Vector, dim)
	b := make(Vector, dim)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	return a, b
}

var sinkU64 uint64

func BenchmarkL2(b *testing.B) {
	for _, dim := range []int{8, 32, 128} {
		va, vb := benchVectors(dim)
		b.Run(benchDim(dim), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(dim * 8))
			for i := 0; i < b.N; i++ {
				sinkU64 = L2(va, vb)
			}
		})
	}
}

func BenchmarkL2Reference(b *testing.B) {
	for _, dim := range []int{8, 32, 128} {
		va, vb := benchVectors(dim)
		b.Run(benchDim(dim), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(dim * 8))
			for i := 0; i < b.N; i++ {
				sinkU64 = refL2(va, vb)
			}
		})
	}
}

func benchDim(d int) string { return fmt.Sprintf("dim%d", d) }
