package points

import (
	"math"
	"math/rand/v2"
)

// PaperDomain is the value range of the paper's synthetic workload: each
// process draws points uniformly between 0 and 2³²−1 (Section 3).
const PaperDomain = 1 << 32

// GenUniformScalars reproduces the paper's workload: n labels-free scalar
// points uniform in [0, domain). Labels are the points' own values scaled to
// [0,1] so regression experiments have a meaningful target.
func GenUniformScalars(rng *rand.Rand, n int, domain uint64) *Set[Scalar] {
	pts := make([]Scalar, n)
	labels := make([]float64, n)
	for i := range pts {
		v := rng.Uint64N(domain)
		pts[i] = Scalar(v)
		labels[i] = float64(v) / float64(domain)
	}
	s, err := NewSet(pts, labels, ScalarMetric, 1)
	if err != nil {
		panic(err) // static metric; cannot fail
	}
	return s
}

// GenUniformVectors draws n points uniform in [0,1)^dim with zero labels.
func GenUniformVectors(rng *rand.Rand, n, dim int) *Set[Vector] {
	pts := make([]Vector, n)
	for i := range pts {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = v
	}
	s, err := NewSet(pts, nil, L2, 1)
	if err != nil {
		panic(err)
	}
	return s
}

// GenGaussianClusters draws n points from c isotropic Gaussian clusters with
// the given standard deviation; centers are uniform in [0,1)^dim and the
// label of each point is its cluster index. This is the classification
// workload: ℓ-NN majority vote should recover the cluster of a query drawn
// near a center.
func GenGaussianClusters(rng *rand.Rand, n, dim, c int, sigma float64) (*Set[Vector], []Vector) {
	centers := make([]Vector, c)
	for i := range centers {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		centers[i] = v
	}
	pts := make([]Vector, n)
	labels := make([]float64, n)
	for i := range pts {
		ci := rng.IntN(c)
		v := make(Vector, dim)
		for j := range v {
			v[j] = centers[ci][j] + rng.NormFloat64()*sigma
		}
		pts[i] = v
		labels[i] = float64(ci)
	}
	s, err := NewSet(pts, labels, L2, 1)
	if err != nil {
		panic(err)
	}
	return s, centers
}

// GenRegression1D draws n scalar points x uniform in [0, domain) with labels
// y = sin(2πx/domain) + noise. ℓ-NN regression (mean of neighbor labels)
// should approximate the sine.
func GenRegression1D(rng *rand.Rand, n int, domain uint64, noise float64) *Set[Scalar] {
	pts := make([]Scalar, n)
	labels := make([]float64, n)
	for i := range pts {
		v := rng.Uint64N(domain)
		pts[i] = Scalar(v)
		labels[i] = math.Sin(2*math.Pi*float64(v)/float64(domain)) + rng.NormFloat64()*noise
	}
	s, err := NewSet(pts, labels, ScalarMetric, 1)
	if err != nil {
		panic(err)
	}
	return s
}
