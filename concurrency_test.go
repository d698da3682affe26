package distknn

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"distknn/internal/core"
	"distknn/internal/election"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// TestConcurrentQueriesMatchOracle fires overlapping KNN, Classify and
// Regress calls from many goroutines and checks every result against the
// brute-force oracle. Run under -race this is the package's central
// concurrency-safety guarantee.
func TestConcurrentQueriesMatchOracle(t *testing.T) {
	c, values, labels := scalarFixture(t, 600, Options{Machines: 8, Seed: 51})
	defer c.Close()
	const workers = 12
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < perWorker; rep++ {
				q := uint64(w*1000003 + rep*7919)
				l := 5 + (w+rep)%13
				switch rep % 3 {
				case 0:
					got, stats, err := c.KNN(Scalar(q), l)
					if err != nil {
						errs <- err
						continue
					}
					want := bruteScalar(values, labels, q, l)
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("worker %d q=%d rank %d: got %+v, want %+v", w, q, i, got[i], want[i])
							break
						}
					}
					if stats.Rounds == 0 || stats.Messages == 0 {
						t.Errorf("worker %d: stats not populated: %+v", w, stats)
					}
				case 1:
					got, _, err := c.Classify(Scalar(q), l)
					if err != nil {
						errs <- err
						continue
					}
					want := majorityLabel(bruteScalar(values, labels, q, l))
					if got != want {
						t.Errorf("worker %d q=%d: Classify = %g, want %g", w, q, got, want)
					}
				case 2:
					got, _, err := c.Regress(Scalar(q), l)
					if err != nil {
						errs <- err
						continue
					}
					want := meanLabel(bruteScalar(values, labels, q, l))
					if diff := got - want; diff > 1e-9 || diff < -1e-9 {
						t.Errorf("worker %d q=%d: Regress = %g, want %g", w, q, got, want)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// majorityLabel mirrors core.Classify's tie-break: most frequent label,
// smallest label on ties.
func majorityLabel(items []Item) float64 {
	counts := make(map[float64]int)
	for _, it := range items {
		counts[it.Label]++
	}
	var best float64
	bestN := -1
	for label, n := range counts {
		if n > bestN || (n == bestN && label < best) {
			best, bestN = label, n
		}
	}
	return best
}

func meanLabel(items []Item) float64 {
	var sum float64
	for _, it := range items {
		sum += it.Label
	}
	return sum / float64(len(items))
}

// TestConcurrentMatchesSerial asserts the determinism guarantee: a seeded
// cluster returns identical neighbor lists for the same queries whether they
// are issued one at a time or from many goroutines at once.
func TestConcurrentMatchesSerial(t *testing.T) {
	queries := make([]Scalar, 24)
	for i := range queries {
		queries[i] = Scalar(i * 999983)
	}
	const l = 9

	serial := make([][]Item, len(queries))
	cs, _, _ := scalarFixture(t, 500, Options{Machines: 6, Seed: 53})
	for i, q := range queries {
		got, _, err := cs.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = got
	}
	cs.Close()

	concurrent := make([][]Item, len(queries))
	cc, _, _ := scalarFixture(t, 500, Options{Machines: 6, Seed: 53})
	defer cc.Close()
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q Scalar) {
			defer wg.Done()
			got, _, err := cc.KNN(q, l)
			if err != nil {
				t.Error(err)
				return
			}
			concurrent[i] = got
		}(i, q)
	}
	wg.Wait()

	for i := range queries {
		if len(serial[i]) != len(concurrent[i]) {
			t.Fatalf("query %d: serial %d neighbors, concurrent %d", i, len(serial[i]), len(concurrent[i]))
		}
		for r := range serial[i] {
			if serial[i][r] != concurrent[i][r] {
				t.Fatalf("query %d rank %d: serial %+v != concurrent %+v", i, r, serial[i][r], concurrent[i][r])
			}
		}
	}
}

// TestSteadyStateQueriesSkipElection verifies that no query pays for the
// leader: every query's rounds, messages and bytes are exactly those of the
// query protocol alone, run on the same seed around the same leader.
func TestSteadyStateQueriesSkipElection(t *testing.T) {
	opts := Options{Machines: 8, Seed: 57}
	c, _, _ := scalarFixture(t, 800, opts)
	defer c.Close()
	const l = 40

	if _, _, err := c.KNN(Scalar(11), l); err != nil { // query #1
		t.Fatal(err)
	}

	for qi := uint64(2); qi <= 4; qi++ { // queries #2..#4
		q := Scalar(qi * 1000003)
		_, stats, err := c.KNN(q, l)
		if err != nil {
			t.Fatal(err)
		}

		// Replay the query protocol alone on the same seed around the
		// cached leader: an identical algorithm execution, so an
		// identical cost.
		leader := c.Leader()
		prog := func(m kmachine.Env) error {
			local := c.parts[m.ID()].TopLItems(q, l)
			_, err := core.KNN(m, core.Config{L: l, Leader: leader}, local)
			return err
		}
		met, err := kmachine.Run(kmachine.Config{
			K:    opts.Machines,
			Seed: xrand.DeriveSeed(opts.Seed, qi),
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != met.Rounds || stats.Messages != met.Messages || stats.Bytes != met.Bytes {
			t.Errorf("query #%d cost %d rounds, %d messages, %d bytes; the protocol alone %d, %d, %d",
				qi, stats.Rounds, stats.Messages, stats.Bytes, met.Rounds, met.Messages, met.Bytes)
		}
	}
}

// TestConcurrentKNNBatch overlaps whole batches with single queries.
func TestConcurrentKNNBatch(t *testing.T) {
	c, values, labels := scalarFixture(t, 400, Options{Machines: 6, Seed: 59})
	defer c.Close()
	queries := []Scalar{3, 1 << 16, 1 << 28, 1 << 31}
	const l = 8
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				results, _, err := c.KNNBatch(queries, l)
				if err != nil {
					t.Error(err)
					return
				}
				for qi, q := range queries {
					want := bruteScalar(values, labels, uint64(q), l)
					for i := range results[qi].Neighbors {
						if results[qi].Neighbors[i] != want[i] {
							t.Errorf("batch worker %d query %d rank %d mismatch", w, qi, i)
							return
						}
					}
				}
			} else {
				if _, _, err := c.KNN(queries[w%len(queries)], l); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentSelectRank overlaps selection queries on a scalar cluster.
func TestConcurrentSelectRank(t *testing.T) {
	values := make([]uint64, 300)
	rng := xrand.New(61)
	for i := range values {
		values[i] = rng.Uint64()
	}
	c, err := NewScalarCluster(values, nil, Options{Machines: 5, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rank := 1 + w*37
			got, _, err := SelectRank(c, rank)
			if err != nil {
				t.Error(err)
				return
			}
			want := nthSmallest(values, rank)
			if got != want {
				t.Errorf("rank %d: got %d, want %d", rank, got, want)
			}
		}(w)
	}
	wg.Wait()
}

func nthSmallest(values []uint64, rank int) uint64 {
	sorted := append([]uint64(nil), values...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[rank-1]
}

// TestClusterClose checks Close semantics on the facade.
func TestClusterClose(t *testing.T) {
	c, _, _ := scalarFixture(t, 100, Options{Machines: 4, Seed: 65})
	if _, _, err := c.KNN(Scalar(1), 3); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, _, err := c.KNN(Scalar(1), 3); !errors.Is(err, ErrClosed) {
		t.Errorf("KNN after Close: %v, want ErrClosed", err)
	}
	if _, _, err := c.Classify(Scalar(1), 3); !errors.Is(err, ErrClosed) {
		t.Errorf("Classify after Close: %v, want ErrClosed", err)
	}
	if _, _, err := c.KNNBatch([]Scalar{1}, 3); !errors.Is(err, ErrClosed) {
		t.Errorf("KNNBatch after Close: %v, want ErrClosed", err)
	}
	if _, _, err := SelectRank(c, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("SelectRank after Close: %v, want ErrClosed", err)
	}
}

// TestClusterHoldsNoGoroutines checks that a Cluster keeps nothing running
// between queries: once a burst of concurrent KNN, Classify and KNNBatch
// calls has returned, the goroutine count is back at its pre-construction
// baseline before Close is called.
func TestClusterHoldsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c, _, _ := scalarFixture(t, 400, Options{Machines: 8, Seed: 75})
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := Scalar(w * 1000003)
			var err error
			switch w % 3 {
			case 0:
				_, _, err = c.KNN(q, 7)
			case 1:
				_, _, err = c.Classify(q, 7)
			default:
				_, _, err = c.KNNBatch([]Scalar{q, q + 1}, 7)
			}
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	// A goroutine still counts for the instant between its last report
	// (a machine's halt, a worker's Done) and its exit, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the queries, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaderCachedAndRederivable checks the construction-time leader is
// cached and used by every query, and that it is re-derivable from the seed
// alone: it is election.Leader of the seed, which a served cluster's
// frontend and nodes compute too, so a rebuild picks it again.
func TestLeaderCachedAndRederivable(t *testing.T) {
	opts := Options{Machines: 8, Seed: 67}
	c, _, _ := scalarFixture(t, 200, opts)
	cached := c.Leader()
	if cached < 0 || cached >= 8 {
		t.Fatalf("cached leader %d out of range", cached)
	}
	_, stats, err := c.KNN(Scalar(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leader != cached {
		t.Errorf("query used leader %d, cached %d", stats.Leader, cached)
	}
	if leader := election.Leader(opts.Seed, 8); leader != cached {
		t.Errorf("re-derived leader %d != cached %d (same seed must replay)", leader, cached)
	}
	if again, _, _ := scalarFixture(t, 200, opts); again.Leader() != cached {
		t.Errorf("rebuilt cluster elected %d, first build %d", again.Leader(), cached)
	}
}

// TestConcurrentVectorQueries exercises the k-d-tree local search path under
// concurrency.
func TestConcurrentVectorQueries(t *testing.T) {
	rng := xrand.New(69)
	vecs := make([]Vector, 300)
	for i := range vecs {
		vecs[i] = Vector{rng.Float64(), rng.Float64()}
	}
	c, err := NewVectorCluster(vecs, nil, Options{Machines: 4, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle, err := points.NewSet(vecs, nil, points.L2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qrng := xrand.NewStream(71, uint64(w))
			for rep := 0; rep < 3; rep++ {
				q := Vector{qrng.Float64(), qrng.Float64()}
				got, _, err := c.KNN(q, 7)
				if err != nil {
					t.Error(err)
					return
				}
				want := oracle.BruteKNN(q, 7)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("worker %d rep %d rank %d mismatch", w, rep, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
