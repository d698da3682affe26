package points

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"distknn/internal/keys"
)

// refL2 is the straight-line reference L2 must match bit-for-bit: same
// elements, same summation order.
func refL2(a, b Vector) uint64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return keys.MustEncodeFloat(sum)
}

// TestL2MatchesReference pins the kernel to the reference across short
// and long dimensions and across magnitudes that stress floating-point
// rounding: if the kernel reordered a single addition, some low-order bit
// here would flip.
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
