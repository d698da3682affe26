package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

type algoFunc func(m kmachine.Env, cfg Config, local []points.Item) (Result, error)

var algorithms = map[string]algoFunc{
	"knn":       KNN,
	"direct":    DirectKNN,
	"simple":    SimpleKNN,
	"saukas":    SaukasSongKNN,
	"binsearch": BinarySearchKNN,
}

// makeInstance builds a partitioned scalar instance and the per-machine item
// lists for a random query; it returns the items, the query and the global
// set for oracle computations.
func makeInstance(seed uint64, n, k int, strategy points.Partitioner) ([][]points.Item, points.Scalar, *points.Set[points.Scalar]) {
	rng := xrand.New(seed)
	global := points.GenUniformScalars(rng, n, points.PaperDomain)
	parts, err := points.Partition(global, k, strategy, rng)
	if err != nil {
		panic(err)
	}
	q := points.Scalar(rng.Uint64N(points.PaperDomain))
	locals := make([][]points.Item, k)
	for i, p := range parts {
		locals[i] = p.Items(q)
	}
	return locals, q, global
}

// runAlgo executes one algorithm over the instance and returns the
// agreed-upon result plus the union of winners and the metrics.
func runAlgo(t testing.TB, seed uint64, bandwidth int, locals [][]points.Item, cfg Config,
	algo algoFunc) (Result, []points.Item, *kmachine.Metrics) {
	t.Helper()
	k := len(locals)
	var mu sync.Mutex
	results := make([]Result, k)
	progs := make([]kmachine.Program, k)
	for i := 0; i < k; i++ {
		i := i
		progs[i] = func(m kmachine.Env) error {
			res, err := algo(m, cfg, locals[i])
			if err != nil {
				return err
			}
			mu.Lock()
			results[i] = res
			mu.Unlock()
			return nil
		}
	}
	met, err := kmachine.RunPrograms(kmachine.Config{K: k, Seed: seed, BandwidthBytes: bandwidth}, progs)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var union []points.Item
	for i := 0; i < k; i++ {
		if results[i].Boundary != results[0].Boundary {
			t.Fatalf("machine %d boundary %v != %v", i, results[i].Boundary, results[0].Boundary)
		}
		if results[i].Survivors != results[0].Survivors || results[i].FellBack != results[0].FellBack ||
			results[i].Iterations != results[0].Iterations {
			t.Fatalf("machines disagree on metadata: %+v vs %+v", results[i], results[0])
		}
		union = append(union, results[i].Winners...)
	}
	if met.Dangling != 0 {
		t.Fatalf("%d dangling messages", met.Dangling)
	}
	return results[0], union, met
}

// checkExactKNN verifies union equals the brute-force ℓ-NN exactly.
func checkExactKNN(t testing.TB, name string, union []points.Item, global *points.Set[points.Scalar],
	q points.Scalar, l int) {
	t.Helper()
	want := global.BruteKNN(q, l)
	if len(union) != len(want) {
		t.Fatalf("%s: %d winners, want %d", name, len(union), len(want))
	}
	wantSet := make(map[keys.Key]float64, len(want))
	for _, it := range want {
		wantSet[it.Key] = it.Label
	}
	for _, it := range union {
		label, ok := wantSet[it.Key]
		if !ok {
			t.Fatalf("%s: winner %v not in brute-force answer", name, it.Key)
		}
		if label != it.Label {
			t.Fatalf("%s: winner %v label %g, want %g", name, it.Key, it.Label, label)
		}
	}
}

func TestAllAlgorithmsMatchBruteForce(t *testing.T) {
	cfgs := []struct {
		n, k, l  int
		strategy points.Partitioner
	}{
		{200, 4, 10, points.PartitionRandom},
		{200, 4, 10, points.PartitionSorted},
		{200, 4, 10, points.PartitionSkewed},
		{500, 8, 100, points.PartitionRandom},
		{100, 16, 1, points.PartitionSorted},
		{64, 4, 64, points.PartitionRandom}, // l = n
		{50, 1, 10, points.PartitionRandom}, // k = 1
		{30, 15, 3, points.PartitionRandom}, // more machines than l
	}
	for name, algo := range algorithms {
		t.Run(name, func(t *testing.T) {
			for ci, c := range cfgs {
				locals, q, global := makeInstance(uint64(ci)+10, c.n, c.k, c.strategy)
				cfg := Config{Leader: 0, L: c.l}
				_, union, _ := runAlgo(t, uint64(ci), 0, locals, cfg, algo)
				checkExactKNN(t, fmt.Sprintf("%s cfg %d", name, ci), union, global, q, c.l)
			}
		})
	}
}

func TestKNNWinnersSortedAscending(t *testing.T) {
	locals, _, _ := makeInstance(5, 300, 4, points.PartitionRandom)
	res, _, _ := runAlgo(t, 5, 0, locals, Config{Leader: 0, L: 50}, KNN)
	for i := 1; i < len(res.Winners); i++ {
		if res.Winners[i].Key.Less(res.Winners[i-1].Key) {
			t.Fatalf("winners not sorted at %d", i)
		}
	}
}

func TestKNNSurvivorsBound(t *testing.T) {
	// Lemma 2.3: survivors ≤ 11ℓ w.h.p. Check across seeds; tolerate no
	// violations at these sizes (failure probability ≤ 2/ℓ²).
	for seed := uint64(0); seed < 10; seed++ {
		l := 64
		locals, _, _ := makeInstance(seed, 8192, 16, points.PartitionRandom)
		res, _, _ := runAlgo(t, seed, 0, locals, Config{Leader: 0, L: l}, KNN)
		if res.Survivors > int64(11*l) {
			t.Errorf("seed %d: %d survivors exceeds 11l=%d", seed, res.Survivors, 11*l)
		}
		if res.Survivors < int64(l) {
			t.Errorf("seed %d: %d survivors below l=%d yet no fallback?", seed, res.Survivors, l)
		}
		if res.FellBack {
			t.Errorf("seed %d: unexpected fallback", seed)
		}
	}
}

func TestKNNLasVegasFallbackStillExact(t *testing.T) {
	// CutFactor 0 is replaced by the default; force a hopeless prune with
	// SampleFactor/CutFactor = 1 and a tiny cut via custom config: cut
	// index 1 means "prune at the smallest sample", which almost surely
	// keeps < l candidates and triggers the fallback.
	locals, q, global := makeInstance(77, 1000, 8, points.PartitionRandom)
	l := 100
	cfg := Config{Leader: 0, L: l, SampleFactor: 1, CutFactor: 1}
	// With cut at rank 1·log2(l+1)=7 of ~8·7 samples, survivors ≈ 7·l/56
	// ≈ 0.12l < l: fallback expected. Run several seeds and require
	// exactness throughout; at least one must fall back.
	fellBack := false
	for seed := uint64(0); seed < 5; seed++ {
		res, union, _ := runAlgo(t, seed, 0, locals, cfg, KNN)
		checkExactKNN(t, "lasvegas", union, global, q, l)
		fellBack = fellBack || res.FellBack
	}
	if !fellBack {
		t.Errorf("expected at least one Las Vegas fallback with a rank-1 prune")
	}
}

func TestKNNRoundsBeatSimpleForLargeL(t *testing.T) {
	// The headline comparison: Algorithm 2 O(log l) rounds vs the simple
	// method Θ(l) rounds.
	locals, _, _ := makeInstance(9, 16384, 8, points.PartitionRandom)
	l := 1024
	_, _, metKNN := runAlgo(t, 9, 0, locals, Config{Leader: 0, L: l}, KNN)
	_, _, metSimple := runAlgo(t, 9, 0, locals, Config{Leader: 0, L: l}, SimpleKNN)
	if metKNN.Rounds*4 > metSimple.Rounds {
		t.Errorf("Algorithm 2 (%d rounds) not clearly faster than simple (%d rounds) at l=%d",
			metKNN.Rounds, metSimple.Rounds, l)
	}
}

func TestKNNRoundLaw(t *testing.T) {
	// With every message inside one round's bandwidth, Algorithm 2's cost
	// is exact. At ℓ = 64 every machine's sample is its whole local top-ℓ,
	// so the leader finishes at the sample: 2 rounds (samples, finish),
	// 2(k−1) messages, no iteration. At ℓ = 128 the 96-key samples are
	// partial: four prelude rounds (samples, prune, counts, proceed), then
	// Algorithm 1 at two rounds an iteration plus its statistics and finish
	// rounds — on the pruned candidates or, after a fallback, on the whole
	// local top-ℓ alike. With no bandwidth cap the survivors fit one gather
	// reply each, so Algorithm 1 takes a single iteration and such a query
	// exactly 8 rounds. A single machine never communicates.
	for _, l := range []int{64, 128} {
		for _, k := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 6; seed++ {
				locals, _, _ := makeInstance(seed, 4096, k, points.PartitionRandom)
				cfg := Config{Leader: 0, L: l}
				res, _, met := runAlgo(t, seed, -1, locals, cfg, KNN)
				if k == 1 {
					if met.Messages != 0 || met.Rounds != 0 {
						t.Errorf("l=%d k=1 seed=%d: %d messages in %d rounds, want none", l, seed, met.Messages, met.Rounds)
					}
					continue
				}
				if complete := completeSample(cfg, locals); complete != (l == 64) {
					t.Fatalf("l=%d k=%d seed=%d: complete sample %v", l, k, seed, complete)
				}
				if l == 64 {
					if met.Rounds != 2 || met.Messages != int64(2*(k-1)) || res.Iterations != 0 {
						t.Errorf("l=64 k=%d seed=%d: %d rounds, %d messages, %d iterations, want 2, %d, 0",
							k, seed, met.Rounds, met.Messages, res.Iterations, 2*(k-1))
					}
					continue
				}
				if want := 2*res.Iterations + 6; met.Rounds != want {
					t.Errorf("l=%d k=%d seed=%d: %d rounds for %d iterations, want %d", l, k, seed, met.Rounds, res.Iterations, want)
				}
				if res.Iterations != 1 {
					t.Errorf("l=%d k=%d seed=%d: %d iterations at unlimited bandwidth, want 1 (the gather)", l, k, seed, res.Iterations)
				}
			}
		}
	}
}

func TestKNNRoundsGrowLogarithmicallyInL(t *testing.T) {
	locals, _, _ := makeInstance(11, 16384, 8, points.PartitionRandom)
	rounds := func(l int, complete bool) int {
		cfg := Config{Leader: 0, L: l}
		_, _, met := runAlgo(t, 11, 0, locals, cfg, KNN)
		if got := completeSample(cfg, locals); got != complete {
			t.Fatalf("l=%d: complete sample %v, want %v", l, got, complete)
		}
		return met.Rounds
	}
	// ℓ = 16 finishes at the sample, at its exact law for the default link:
	// 5 rounds for each worker's 16-key sample, 1 for the finish.
	if got := rounds(16, true); got != 6 {
		t.Errorf("l=16 finishes at the sample in %d rounds, want 6", got)
	}
	// Both ℓ below take the prune path. ℓ grew 64×; O(log ℓ) predicts
	// growth ≈ log(8192)/log(128) ≈ 1.9×. Allow up to 8× before flagging;
	// Θ(ℓ) growth would be ≈ 64×.
	r128, r8192 := rounds(128, false), rounds(8192, false)
	if r8192 > 8*r128 {
		t.Errorf("rounds grew too fast: l=128→%d rounds, l=8192→%d rounds", r128, r8192)
	}
}

func TestKNNMessagesLinearInK(t *testing.T) {
	msgs := func(k int) int64 {
		locals, _, _ := makeInstance(13, 8192, k, points.PartitionRandom)
		_, _, met := runAlgo(t, 13, 0, locals, Config{Leader: 0, L: 128}, KNN)
		return met.Messages
	}
	m4, m16 := msgs(4), msgs(16)
	// 4× the machines should be ≈ 4× the messages (O(k log l)); flag at 10×.
	if m16 > 10*m4 {
		t.Errorf("messages superlinear in k: k=4→%d, k=16→%d", m4, m16)
	}
}

func TestLTooLargeFails(t *testing.T) {
	for name, algo := range algorithms {
		locals, _, _ := makeInstance(15, 50, 4, points.PartitionRandom)
		k := len(locals)
		progs := make([]kmachine.Program, k)
		for i := 0; i < k; i++ {
			i := i
			progs[i] = func(m kmachine.Env) error {
				_, err := algo(m, Config{Leader: 0, L: 51}, locals[i])
				return err
			}
		}
		if _, err := kmachine.RunPrograms(kmachine.Config{K: k, Seed: 1}, progs); err == nil {
			t.Errorf("%s: l > n must fail", name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := kmachine.Run(kmachine.Config{K: 2, Seed: 1}, func(m kmachine.Env) error {
		_, err := KNN(m, Config{Leader: 5, L: 1}, nil)
		return err
	})
	if err == nil {
		t.Errorf("leader out of range must fail")
	}
	_, err = kmachine.Run(kmachine.Config{K: 2, Seed: 1}, func(m kmachine.Env) error {
		_, err := KNN(m, Config{Leader: 0, L: 0}, nil)
		return err
	})
	if err == nil {
		t.Errorf("l = 0 must fail")
	}
}

func TestClassifyMajority(t *testing.T) {
	// Winners with labels 1,1,2 → majority 1; distributed across machines.
	shares := [][]points.Item{
		{{Key: keys.Key{Dist: 1, ID: 1}, Label: 1}},
		{{Key: keys.Key{Dist: 2, ID: 2}, Label: 1}},
		{{Key: keys.Key{Dist: 3, ID: 3}, Label: 2}},
	}
	label, err := ClassifyShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Errorf("classified %g, want 1", label)
	}
}

func TestClassifyTieBreaksLow(t *testing.T) {
	shares := [][]points.Item{
		{{Key: keys.Key{Dist: 1, ID: 1}, Label: 5}},
		{{Key: keys.Key{Dist: 2, ID: 2}, Label: 3}},
	}
	label, err := ClassifyShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	if label != 3 {
		t.Errorf("tie broke to %g, want 3 (smallest label)", label)
	}
}

func TestRegressMean(t *testing.T) {
	shares := [][]points.Item{
		{{Key: keys.Key{Dist: 1, ID: 1}, Label: 1}, {Key: keys.Key{Dist: 2, ID: 2}, Label: 2}},
		{{Key: keys.Key{Dist: 3, ID: 3}, Label: 6}},
		nil, // machine with no winners
	}
	for leader := range shares {
		v, err := RegressShares(shares, leader)
		if err != nil {
			t.Fatal(err)
		}
		if v != 3 {
			t.Errorf("leader %d: regressed %g, want 3", leader, v)
		}
	}
}

// knnShares runs Algorithm 2 over the instance on the simulator and returns
// every machine's winner share, the input the label folds take.
func knnShares(t *testing.T, seed uint64, locals [][]points.Item, cfg Config) [][]points.Item {
	t.Helper()
	shares := make([][]points.Item, len(locals))
	_, err := kmachine.Run(kmachine.Config{K: len(locals), Seed: seed}, func(m kmachine.Env) error {
		res, err := KNN(m, cfg, locals[m.ID()])
		shares[m.ID()] = res.Winners
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return shares
}

func TestEndToEndKNNThenClassify(t *testing.T) {
	// Full pipeline on clustered vector data: query near a cluster center
	// must classify as that cluster.
	rng := xrand.New(33)
	global, centers := points.GenGaussianClusters(rng, 600, 2, 3, 0.02)
	parts, err := points.Partition(global, 6, points.PartitionRandom, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := centers[1]
	locals := make([][]points.Item, 6)
	for i, p := range parts {
		locals[i] = p.Items(q)
	}
	label, err := ClassifyShares(knnShares(t, 2, locals, Config{Leader: 0, L: 15}))
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Errorf("query at center 1 classified as %g", label)
	}
}

func TestTopL(t *testing.T) {
	items := []points.Item{
		{Key: keys.Key{Dist: 5, ID: 1}},
		{Key: keys.Key{Dist: 1, ID: 2}},
		{Key: keys.Key{Dist: 3, ID: 3}},
	}
	got := topL(items, 2)
	if len(got) != 2 || got[0].Key.Dist != 1 || got[1].Key.Dist != 3 {
		t.Errorf("topL = %+v", got)
	}
	if got := topL(items, 10); len(got) != 3 {
		t.Errorf("topL with l>n kept %d", len(got))
	}
	if got := topL(items, 0); got != nil {
		t.Errorf("topL with l=0 must be nil")
	}
	// Input must not be reordered.
	if items[0].Key.Dist != 5 {
		t.Errorf("topL mutated input")
	}
}

func TestLog2CeilAndSampleSize(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := log2Ceil(x); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", x, got, want)
		}
	}
	if got := sampleSize(1, 12); got != 12 {
		t.Errorf("sampleSize(1) = %d, want 12", got)
	}
	if got := sampleSize(0, 12); got < 1 {
		t.Errorf("sampleSize must be >= 1")
	}
}

// Property: Las Vegas KNN is exact for arbitrary instances.
func TestKNNExactProperty(t *testing.T) {
	prop := func(seed uint64, rawN, rawK, rawL uint16) bool {
		n := int(rawN)%300 + 1
		k := int(rawK)%6 + 1
		l := int(rawL)%n + 1
		strategy := points.Partitioner(seed % 3)
		locals, q, global := makeInstance(seed, n, k, strategy)
		cfg := Config{Leader: int(seed % uint64(k)), L: l}
		_, union, _ := runAlgo(t, seed, 0, locals, cfg, KNN)
		want := global.BruteKNN(q, l)
		if len(union) != len(want) {
			return false
		}
		wantSet := make(map[keys.Key]bool)
		for _, it := range want {
			wantSet[it.Key] = true
		}
		for _, it := range union {
			if !wantSet[it.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("KNN exactness property failed: %v", err)
	}
}

// Oracle classification cross-check on scalar data.
func TestClassifyMatchesBruteForceVote(t *testing.T) {
	locals, q, global := makeInstance(44, 400, 5, points.PartitionRandom)
	l := 25
	got, err := ClassifyShares(knnShares(t, 3, locals, Config{Leader: 0, L: l}))
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteMajority(global.BruteKNN(q, l)); got != want {
		t.Errorf("distributed classify %g, brute force %g", got, want)
	}
}

func bruteMajority(items []points.Item) float64 {
	hist := make(map[float64]int)
	for _, it := range items {
		hist[it.Label]++
	}
	labels := make([]float64, 0, len(hist))
	for label := range hist {
		labels = append(labels, label)
	}
	sort.Float64s(labels)
	best, bestCount := 0.0, -1
	for _, label := range labels {
		if hist[label] > bestCount {
			best, bestCount = label, hist[label]
		}
	}
	return best
}
