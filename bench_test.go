// Benchmarks regenerating the paper's evaluation artifacts (one Benchmark
// per bench.Experiments id). Each benchmark runs its experiment at a
// reduced but meaningful size and reports model-level costs (rounds,
// messages) as custom metrics alongside wall time; run cmd/knnbench for the
// full sweeps and tables.
//
//	go test -bench=. -benchmem
package distknn_test

import (
	"testing"

	"distknn"
	"distknn/internal/bench"
	"distknn/internal/core"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// benchParams returns harness parameters sized for a benchmark iteration.
func benchParams() bench.Params {
	return bench.Params{Seed: 1, Reps: 1, PerMachine: 1 << 12}
}

// runExperiment drives a whole experiment once per benchmark iteration.
func runExperiment(b *testing.B, id string, p bench.Params) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates E1 (the paper's Figure 2) at one (k, l) cell
// per series to keep iterations fast.
func BenchmarkFigure2(b *testing.B) {
	p := benchParams()
	p.Ks = []int{8, 32}
	p.Ls = []int{256, 2048}
	runExperiment(b, "figure2", p)
}

// BenchmarkRoundsVsL regenerates E2.
func BenchmarkRoundsVsL(b *testing.B) {
	p := benchParams()
	p.Ls = []int{16, 256, 4096}
	runExperiment(b, "rounds", p)
}

// BenchmarkMessages regenerates E3.
func BenchmarkMessages(b *testing.B) {
	p := benchParams()
	p.Ls = []int{16, 256, 4096}
	runExperiment(b, "messages", p)
}

// BenchmarkAlg1Rounds regenerates E4.
func BenchmarkAlg1Rounds(b *testing.B) {
	p := benchParams()
	p.Quick = true
	runExperiment(b, "alg1", p)
}

// BenchmarkSampling regenerates E5.
func BenchmarkSampling(b *testing.B) {
	p := benchParams()
	p.Ls = []int{64, 512}
	runExperiment(b, "sampling", p)
}

// BenchmarkPivot regenerates E6.
func BenchmarkPivot(b *testing.B) {
	p := benchParams()
	p.Quick = true
	runExperiment(b, "pivot", p)
}

// BenchmarkBaselines regenerates E7.
func BenchmarkBaselines(b *testing.B) {
	p := benchParams()
	p.Ks = []int{8}
	p.Ls = []int{256}
	runExperiment(b, "baselines", p)
}

// BenchmarkWallClock regenerates E8.
func BenchmarkWallClock(b *testing.B) {
	p := benchParams()
	p.Quick = true
	runExperiment(b, "wallclock", p)
}

// BenchmarkConstants regenerates E9.
func BenchmarkConstants(b *testing.B) {
	p := benchParams()
	p.Quick = true
	runExperiment(b, "constants", p)
}

// BenchmarkQueryAlg2 measures one end-to-end Algorithm 2 query (k=16,
// l=256) and reports rounds/messages as custom metrics.
func BenchmarkQueryAlg2(b *testing.B) {
	benchmarkQuery(b, core.Alg2)
}

// BenchmarkQuerySimple measures the same query under the simple method —
// the head-to-head pair behind Figure 2.
func BenchmarkQuerySimple(b *testing.B) {
	benchmarkQuery(b, core.Simple)
}

func benchmarkQuery(b *testing.B, alg core.Algorithm) {
	in := bench.NewInstance(1, 16, 1<<14)
	var rounds, msgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := in.Query(1, i)
		_, met, err := in.Run(q, 256, 0, uint64(i), alg, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(met.Rounds)
		msgs += met.Messages
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/query")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
}

// BenchmarkFacadeKNN measures the public API end to end, including
// partitioning amortized over queries.
func BenchmarkFacadeKNN(b *testing.B) {
	rng := xrand.New(1)
	values := make([]uint64, 1<<16)
	for i := range values {
		values[i] = rng.Uint64N(points.PaperDomain)
	}
	c, err := distknn.NewScalarCluster(values, nil, distknn.Options{Machines: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.KNN(distknn.Scalar(rng.Uint64N(points.PaperDomain)), 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRound measures the engine's per-round barrier overhead,
// the floor under every protocol measurement.
func BenchmarkSimulatorRound(b *testing.B) {
	const roundsPerRun = 256
	k := 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := kmachine.Run(kmachine.Config{K: k, Seed: uint64(i)}, func(m kmachine.Env) error {
			for r := 0; r < roundsPerRun; r++ {
				m.EndRound()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*roundsPerRun*k), "ns/machine-round")
}
