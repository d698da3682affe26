package dsel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/seqselect"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

var protocols = map[string]Protocol{
	"alg1":          FindLSmallest,
	"saukas-song":   SaukasSong,
	"binary-search": BinarySearch,
}

// scatter deals n random distinct-ish keys across k machines; style 0 =
// round-robin random, 1 = sorted contiguous (adversarial), 2 = all on one
// machine, 3 = some machines empty.
func scatter(seed uint64, n, k, style int) [][]keys.Key {
	rng := xrand.New(seed)
	all := make([]keys.Key, n)
	for i := range all {
		all[i] = keys.Key{Dist: rng.Uint64N(1 << 40), ID: uint64(i) + 1}
	}
	locals := make([][]keys.Key, k)
	switch style {
	case 1:
		sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
		per := (n + k - 1) / k
		for i, key := range all {
			locals[i/per] = append(locals[i/per], key)
		}
	case 2:
		locals[k-1] = all
	case 3:
		for i, key := range all {
			locals[i%((k+1)/2)] = append(locals[i%((k+1)/2)], key)
		}
	default:
		// Round-robin after a shuffle: the benign balanced layout.
		rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
		for i, key := range all {
			locals[i%k] = append(locals[i%k], key)
		}
	}
	return locals
}

// runSelection executes proto on k machines and returns the agreed result,
// the union of winners, and the metrics.
func runSelection(t *testing.T, seed uint64, bandwidth int, locals [][]keys.Key, l int,
	proto Protocol) (Result, []keys.Key, *kmachine.Metrics) {
	t.Helper()
	k := len(locals)
	var mu sync.Mutex
	results := make([]Result, k)
	progs := make([]kmachine.Program, k)
	for i := 0; i < k; i++ {
		i := i
		progs[i] = func(m kmachine.Env) error {
			res, err := proto(m, 0, locals[i], l, Options{})
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
		t.Fatalf("selection run failed: %v", err)
	}
	var union []keys.Key
	for i := 0; i < k; i++ {
		if results[i].Boundary != results[0].Boundary {
			t.Fatalf("machine %d boundary %v != machine 0 boundary %v",
				i, results[i].Boundary, results[0].Boundary)
		}
		if results[i].Iterations != results[0].Iterations {
			t.Fatalf("iteration counts disagree: %d vs %d", results[i].Iterations, results[0].Iterations)
		}
		union = append(union, results[i].Winners...)
	}
	if met.Dangling != 0 {
		t.Fatalf("%d dangling messages", met.Dangling)
	}
	return results[0], union, met
}

// oracle returns the expected boundary and winner set.
func oracle(locals [][]keys.Key, l int) (keys.Key, map[keys.Key]bool) {
	var all []keys.Key
	for _, lk := range locals {
		all = append(all, lk...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
	want := make(map[keys.Key]bool, l)
	for _, k := range all[:l] {
		want[k] = true
	}
	return all[l-1], want
}

func checkExact(t *testing.T, name string, res Result, union []keys.Key, locals [][]keys.Key, l int) {
	t.Helper()
	wantBoundary, wantSet := oracle(locals, l)
	if res.Boundary != wantBoundary {
		t.Fatalf("%s: boundary %v, want %v", name, res.Boundary, wantBoundary)
	}
	if len(union) != l {
		t.Fatalf("%s: %d winners, want %d", name, len(union), l)
	}
	for _, k := range union {
		if !wantSet[k] {
			t.Fatalf("%s: winner %v is not among the %d smallest", name, k, l)
		}
	}
}

func TestAllProtocolsMatchOracle(t *testing.T) {
	for name, proto := range protocols {
		t.Run(name, func(t *testing.T) {
			cfgs := []struct {
				n, k, style, l int
			}{
				{100, 4, 0, 10},
				{100, 4, 1, 10},   // adversarial sorted
				{100, 4, 2, 10},   // all on one machine
				{100, 7, 3, 33},   // some machines empty
				{1, 3, 0, 1},      // single point
				{64, 8, 0, 64},    // l = n
				{64, 8, 1, 1},     // l = 1 adversarial
				{500, 16, 0, 250}, // median
				{50, 2, 0, 25},    // minimum k
			}
			for ci, cfg := range cfgs {
				locals := scatter(uint64(ci), cfg.n, cfg.k, cfg.style)
				res, union, _ := runSelection(t, uint64(ci)+1000, 0, locals, cfg.l, proto)
				checkExact(t, fmt.Sprintf("%s cfg %d", name, ci), res, union, locals, cfg.l)
			}
		})
	}
}

func TestSelectionSingleMachine(t *testing.T) {
	for name, proto := range protocols {
		locals := scatter(42, 50, 1, 0)
		res, union, met := runSelection(t, 7, 0, locals, 20, proto)
		checkExact(t, name, res, union, locals, 20)
		if met.Messages != 0 {
			t.Errorf("%s: single machine sent %d messages", name, met.Messages)
		}
	}
}

func TestSelectionDuplicateDistances(t *testing.T) {
	// All keys share one distance: selection must resolve purely by ID.
	k, n, l := 4, 100, 37
	locals := make([][]keys.Key, k)
	for i := 0; i < n; i++ {
		locals[i%k] = append(locals[i%k], keys.Key{Dist: 99, ID: uint64(i) + 1})
	}
	for name, proto := range protocols {
		res, union, _ := runSelection(t, 3, 0, locals, l, proto)
		checkExact(t, name, res, union, locals, l)
		if res.Boundary.ID != uint64(l) {
			t.Errorf("%s: boundary ID %d, want %d", name, res.Boundary.ID, l)
		}
	}
}

func TestRankOutOfRangeFails(t *testing.T) {
	locals := scatter(1, 10, 2, 0)
	progs := []kmachine.Program{
		func(m kmachine.Env) error {
			_, err := FindLSmallest(m, 0, locals[0], 11, Options{})
			return err
		},
		func(m kmachine.Env) error {
			_, err := FindLSmallest(m, 0, locals[1], 11, Options{})
			return err
		},
	}
	if _, err := kmachine.RunPrograms(kmachine.Config{K: 2, Seed: 1}, progs); err == nil {
		t.Errorf("rank beyond n must fail")
	}
}

func TestMinKeySentinelRejected(t *testing.T) {
	_, err := kmachine.Run(kmachine.Config{K: 1, Seed: 1}, func(m kmachine.Env) error {
		_, err := FindLSmallest(m, 0, []keys.Key{keys.MinKey}, 1, Options{})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "sentinel") {
		t.Errorf("MinKey-valued input must be rejected, got %v", err)
	}
}

func TestAlg1RoundsLogarithmic(t *testing.T) {
	// Theorem 2.2: O(log n) rounds w.h.p. Each iteration costs exactly 2
	// rounds (plus 2 for the opening statistics and the finish broadcast);
	// expected iterations ≈ 3·log_{3/2} n ≈ 5.1·ln n. We assert a
	// generous deterministic-per-seed envelope of 20·log2(n)+22 rounds.
	for _, n := range []int{100, 1000, 10000} {
		locals := scatter(uint64(n), n, 8, 0)
		_, _, met := runSelection(t, uint64(n), 0, locals, n/2, protocols["alg1"])
		bound := int(20*math.Log2(float64(n))) + 22
		if met.Rounds > bound {
			t.Errorf("n=%d: %d rounds exceeds O(log n) envelope %d", n, met.Rounds, bound)
		}
	}
}

func TestAlg1RoundLaw(t *testing.T) {
	// With every message inside one round's bandwidth the cost is exact, not
	// an envelope: one round of opening statistics, two per iteration (split
	// query out, counts and candidates back), one for the finish broadcast.
	// With no bandwidth cap every machine's keys fit one message from the
	// start, so the only iteration is the gather.
	for _, k := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 6; seed++ {
			for style := 0; style < 4; style++ {
				locals := scatter(seed, 600, k, style)
				res, _, met := runSelection(t, seed+50, -1, locals, 200, protocols["alg1"])
				if res.Iterations != 1 {
					t.Errorf("k=%d seed=%d style=%d: %d iterations at unlimited bandwidth, want 1 (the gather)",
						k, seed, style, res.Iterations)
				}
				if want := 2*res.Iterations + 2; met.Rounds != want {
					t.Errorf("k=%d seed=%d style=%d: %d rounds for %d iterations, want %d",
						k, seed, style, met.Rounds, res.Iterations, want)
				}
				if want := int64(k-1) * int64(2*res.Iterations+2); met.Messages != want {
					t.Errorf("k=%d seed=%d style=%d: %d messages for %d iterations, want %d",
						k, seed, style, met.Messages, res.Iterations, want)
				}
			}
		}
	}
}

func TestGatherFinishRoundLaw(t *testing.T) {
	// The leader gathers at the first iteration where every worker's
	// in-range keys fit one reply under B, and splits before that: no pivot
	// is drawn once every count fits, and the gather ends the run. Either way
	// an iteration is two rounds, so the round law is the split-only one.
	const k, n, l = 4, 600, 200
	for _, bandwidth := range []int{64, 256, 1024, -1} {
		budget := int64(bandwidth - kmachine.MessageOverheadBytes)
		for seed := uint64(1); seed <= 8; seed++ {
			locals := scatter(seed, n, k, int(seed%4))
			fits := func(lo, hi keys.Key) bool {
				for _, local := range locals[1:] {
					if bandwidth >= 0 && gatherReplySize(int64(seqselect.CountInRange(local, lo, hi))) > budget {
						return false
					}
				}
				return true
			}
			pivots := 0
			progs := make([]kmachine.Program, k)
			results := make([]Result, k)
			for i := range progs {
				progs[i] = func(m kmachine.Env) error {
					var opts Options
					if i == 0 {
						opts.OnPivot = func(pivot, lo, hi keys.Key, total int64) {
							pivots++
							if fits(lo, hi) {
								t.Errorf("B=%d seed=%d: pivot drawn in (%v, %v] although every worker's keys fit one reply",
									bandwidth, seed, lo, hi)
							}
						}
					}
					var err error
					results[i], err = FindLSmallest(m, 0, locals[i], l, opts)
					return err
				}
			}
			met, err := kmachine.RunPrograms(kmachine.Config{K: k, Seed: seed, BandwidthBytes: bandwidth}, progs)
			if err != nil {
				t.Fatalf("B=%d seed=%d: %v", bandwidth, seed, err)
			}
			var union []keys.Key
			for _, res := range results {
				union = append(union, res.Winners...)
			}
			checkExact(t, fmt.Sprintf("B=%d seed=%d", bandwidth, seed), results[0], union, locals, l)
			iters := results[0].Iterations
			if want := 2*iters + 2; met.Rounds != want {
				t.Errorf("B=%d seed=%d: %d rounds for %d iterations, want %d", bandwidth, seed, met.Rounds, iters, want)
			}
			// Every iteration but a final gather draws a pivot.
			if pivots != iters && pivots != iters-1 {
				t.Errorf("B=%d seed=%d: %d pivots in %d iterations", bandwidth, seed, pivots, iters)
			}
			if bandwidth < 0 && pivots != 0 {
				t.Errorf("B=-1 seed=%d: %d pivots drawn, want 0", seed, pivots)
			}
		}
	}
}

// sizeEnv records the largest payload a machine sends.
type sizeEnv struct {
	kmachine.Env
	max   *int
	kinds map[byte]bool // every message kind sent
}

func (e sizeEnv) note(payload []byte) {
	if len(payload) > *e.max {
		*e.max = len(payload)
	}
	e.kinds[payload[0]] = true
}

func (e sizeEnv) Send(to int, payload []byte) {
	e.note(payload)
	e.Env.Send(to, payload)
}

func (e sizeEnv) Broadcast(payload []byte) {
	e.note(payload)
	e.Env.Broadcast(payload)
}

func TestEveryMessageFitsOneDefaultRound(t *testing.T) {
	// The simulator's default link moves 64 bytes a round. A dsel message
	// that outgrows it would still arrive — a round late, silently doubling
	// every round count the experiments report.
	const budget = kmachine.DefaultBandwidth - kmachine.MessageOverheadBytes
	for name, proto := range protocols {
		locals := scatter(5, 3000, 4, 0)
		sizes := make([]int, len(locals))
		kinds := make([]map[byte]bool, len(locals))
		progs := make([]kmachine.Program, len(locals))
		for i := range progs {
			kinds[i] = make(map[byte]bool)
			progs[i] = func(m kmachine.Env) error {
				_, err := proto(sizeEnv{m, &sizes[i], kinds[i]}, 0, locals[i], 1000, Options{})
				return err
			}
		}
		if _, err := kmachine.RunPrograms(kmachine.Config{K: len(locals), Seed: 5}, progs); err != nil {
			t.Fatal(err)
		}
		for i, size := range sizes {
			if size == 0 || size > budget {
				t.Errorf("%s: machine %d's largest payload is %d bytes, want 1..%d", name, i, size, budget)
			}
		}
		// Algorithm 1 ends in a gather, so both gather messages were among
		// the payloads measured.
		if name == "alg1" && (!kinds[0][msgGather] || !kinds[1][msgGatherReply]) {
			t.Errorf("alg1 finished without a gather: leader sent kinds %v, a worker %v", kinds[0], kinds[1])
		}
	}
	// The two variable-length messages at their widest.
	big := pick{n: math.MaxInt64 / 2, cand: keys.MaxKey}
	if n := len(encodeSplitReply(big, big)); n > budget {
		t.Errorf("widest split reply is %d bytes, budget %d", n, budget)
	}
	if n := len(encodeStats(xrand.New(1), make([]keys.Key, 1<<20))); n > budget {
		t.Errorf("stats for 2^20 keys is %d bytes, budget %d", n, budget)
	}
	// The widest gather reply the leader's rule admits: its size formula is
	// the encoder's, so the reply it allows fits and one more key does not.
	widest := int64(0)
	for gatherReplySize(widest+1) <= budget {
		widest++
	}
	if widest != 3 {
		t.Errorf("the rule admits gather replies of %d keys at B = %d, want 3", widest, kmachine.DefaultBandwidth)
	}
	for _, n := range []int64{0, widest, widest + 1, 200} {
		local := make([]keys.Key, n)
		for i := range local {
			local[i] = keys.MaxKey
		}
		if got := int64(len(encodeGatherReply(local, keys.MinKey, keys.MaxKey))); got != gatherReplySize(n) {
			t.Errorf("gather reply of %d keys is %d bytes, the rule computes %d", n, got, gatherReplySize(n))
		}
	}
}

func TestAlg1RoundsIndependentOfK(t *testing.T) {
	// The same instance spread over more machines must not need more
	// rounds (up to random variation): compare k=2 vs k=32 medians over
	// several seeds.
	medianRounds := func(k int) int {
		var rounds []int
		for seed := uint64(0); seed < 7; seed++ {
			locals := scatter(seed+77, 2048, k, 0)
			_, _, met := runSelection(t, seed, 0, locals, 512, protocols["alg1"])
			rounds = append(rounds, met.Rounds)
		}
		sort.Ints(rounds)
		return rounds[len(rounds)/2]
	}
	r2, r32 := medianRounds(2), medianRounds(32)
	if float64(r32) > 2.5*float64(r2)+20 {
		t.Errorf("rounds grew with k: k=2 median %d, k=32 median %d", r2, r32)
	}
}

func TestAlg1MessagesScaleWithK(t *testing.T) {
	// Theorem 2.2: O(k log n) messages. Doubling k should roughly double
	// messages, not square them.
	msgs := func(k int) int64 {
		var total int64
		for seed := uint64(0); seed < 5; seed++ {
			locals := scatter(seed+99, 4096, k, 0)
			_, _, met := runSelection(t, seed, 0, locals, 1024, protocols["alg1"])
			total += met.Messages
		}
		return total
	}
	m8, m32 := msgs(8), msgs(32)
	ratio := float64(m32) / float64(m8)
	if ratio > 8 { // perfect linearity gives 4; allow slack for variance
		t.Errorf("messages superlinear in k: m8=%d m32=%d ratio=%.1f", m8, m32, ratio)
	}
}

func TestSaukasSongIterationBound(t *testing.T) {
	// Weighted-median discards ≥ 1/4 per iteration: iterations ≤
	// log_{4/3}(n) + 2, deterministically.
	for _, n := range []int{100, 1000, 5000} {
		locals := scatter(uint64(n)+5, n, 8, 0)
		res, _, _ := runSelection(t, uint64(n), 0, locals, n/3, protocols["saukas-song"])
		bound := int(math.Log(float64(n))/math.Log(4.0/3.0)) + 2
		if res.Iterations > bound {
			t.Errorf("n=%d: %d iterations exceeds deterministic bound %d", n, res.Iterations, bound)
		}
	}
}

func TestBinarySearchIterationBound(t *testing.T) {
	locals := scatter(6, 1000, 8, 0)
	res, _, _ := runSelection(t, 6, 0, locals, 500, protocols["binary-search"])
	if res.Iterations > 128 {
		t.Errorf("binary search used %d iterations, domain is 128 bits", res.Iterations)
	}
	if res.Iterations < 10 {
		t.Errorf("suspiciously few iterations (%d) for a 2^40 distance domain", res.Iterations)
	}
}

func TestPivotUniformity(t *testing.T) {
	// Lemma 2.1: the first pivot is uniform over all n keys. Run many
	// single-iteration observations and bucket the pivot's global rank.
	const n, k, buckets, trials = 64, 4, 8, 800
	counts := make([]int, buckets)
	for trial := 0; trial < trials; trial++ {
		locals := scatter(123, n, k, 0) // same instance every trial
		var all []keys.Key
		for _, lk := range locals {
			all = append(all, lk...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
		rank := make(map[keys.Key]int, n)
		for i, key := range all {
			rank[key] = i
		}
		var firstPivot *keys.Key
		progs := make([]kmachine.Program, k)
		for i := 0; i < k; i++ {
			i := i
			progs[i] = func(m kmachine.Env) error {
				opts := Options{}
				if m.ID() == 0 {
					opts.OnPivot = func(pivot, lo, hi keys.Key, total int64) {
						if firstPivot == nil {
							p := pivot
							firstPivot = &p
						}
					}
				}
				_, err := FindLSmallest(m, 0, locals[i], n/2, opts)
				return err
			}
		}
		if _, err := kmachine.RunPrograms(kmachine.Config{K: k, Seed: uint64(trial), BandwidthBytes: 0}, progs); err != nil {
			t.Fatal(err)
		}
		if firstPivot == nil {
			t.Fatal("no pivot observed")
		}
		counts[rank[*firstPivot]*buckets/n]++
	}
	// Chi-square against uniform with 7 dof; 26.0 ≈ p=0.0005.
	expected := float64(trials) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 26.0 {
		t.Errorf("pivot ranks not uniform: chi2=%.1f buckets=%v", chi2, counts)
	}
}

func TestSecondPivotUniformity(t *testing.T) {
	// The first pivot comes from the opening statistics; every later one is
	// a candidate piggybacked on a split reply. Lemma 2.1 must hold for
	// those too: given the surviving range, the second pivot is uniform over
	// the keys in it. The instance is fixed and lopsided — the machines'
	// counts differ 10×, and machines 1 and 2 hold only small and only large
	// keys, so after most first pivots one of them has an empty side — which
	// is where a draw that weighted machines wrongly would show. It runs at
	// the default 64-byte link: with no cap the leader would gather at once.
	const k, buckets, trials = 4, 8, 2400
	sizes := [k]int{4, 40, 16, 4}
	locals := make([][]keys.Key, k)
	id := uint64(1)
	for i, size := range sizes {
		for j := 0; j < size; j++ {
			dist := uint64(j)
			switch i {
			case 2:
				dist += 1000 // all above machine 1's
			case 0, 3:
				dist = uint64(j) * 300 // straddling both
			}
			locals[i] = append(locals[i], keys.Key{Dist: dist, ID: id})
			id++
		}
	}
	var all []keys.Key
	for _, lk := range locals {
		all = append(all, lk...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })

	observed := make([]float64, buckets)
	expected := make([]float64, buckets)
	for trial := 0; trial < trials; trial++ {
		seen := 0
		progs := make([]kmachine.Program, k)
		for i := range progs {
			progs[i] = func(m kmachine.Env) error {
				opts := Options{}
				if m.ID() == 0 {
					opts.OnPivot = func(pivot, lo, hi keys.Key, total int64) {
						if seen++; seen != 2 {
							return
						}
						// Rank of the pivot among the keys in (lo, hi].
						first := sort.Search(len(all), func(i int) bool { return lo.Less(all[i]) })
						rank := sort.Search(len(all), func(i int) bool { return !all[i].Less(pivot) }) - first
						if rank < 0 || int64(rank) >= total || all[first+rank] != pivot {
							t.Errorf("second pivot %v is not one of the %d keys in (%v, %v]", pivot, total, lo, hi)
							return
						}
						observed[rank*buckets/int(total)]++
						for r := 0; r < int(total); r++ {
							expected[r*buckets/int(total)] += 1 / float64(total)
						}
					}
				}
				_, err := FindLSmallest(m, 0, locals[i], len(all)/2, opts)
				return err
			}
		}
		if _, err := kmachine.RunPrograms(kmachine.Config{K: k, Seed: uint64(trial)}, progs); err != nil {
			t.Fatal(err)
		}
	}
	// Chi-square with 7 dof against the per-trial uniform expectation
	// (ranges shorter than the bucket count leave some buckets unreachable,
	// hence the accumulated expectation rather than trials/buckets);
	// 26.0 ≈ p = 0.0005.
	var chi2, n float64
	for b := range observed {
		d := observed[b] - expected[b]
		chi2 += d * d / expected[b]
		n += observed[b]
	}
	if n < trials*0.9 {
		t.Fatalf("only %.0f of %d trials reached a second pivot", n, trials)
	}
	if chi2 > 26.0 {
		t.Errorf("second pivots not uniform over the surviving range: chi2=%.1f observed=%v expected=%.0f",
			chi2, observed, expected)
	}
}

func TestSplitPick(t *testing.T) {
	// Counts are exact, candidates lie on their side, and an empty side has
	// none — including the sides a sorted layout empties completely.
	rng := xrand.New(3)
	local := scatter(3, 500, 1, 0)[0]
	sorted := append([]keys.Key(nil), local...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Less(sorted[b]) })
	for _, c := range [][3]int{{-1, 250, 499}, {100, 100, 300}, {100, 300, 300}, {0, 1, 2}, {-1, -1, 499}} {
		at := func(i int) keys.Key {
			if i < 0 {
				return keys.MinKey
			}
			return sorted[i]
		}
		lo, p, hi := at(c[0]), at(c[1]), at(c[2])
		low, high := splitPick(rng, local, lo, p, hi)
		if low.n != int64(c[1]-c[0]) || high.n != int64(c[2]-c[1]) {
			t.Errorf("%v: counts %d + %d, want %d + %d", c, low.n, high.n, c[1]-c[0], c[2]-c[1])
		}
		if low.n > 0 && !(lo.Less(low.cand) && low.cand.LessEq(p)) || low.n == 0 && low.cand != (keys.Key{}) {
			t.Errorf("%v: low candidate %v for %d keys in (%v, %v]", c, low.cand, low.n, lo, p)
		}
		if high.n > 0 && !(p.Less(high.cand) && high.cand.LessEq(hi)) || high.n == 0 && high.cand != (keys.Key{}) {
			t.Errorf("%v: high candidate %v for %d keys in (%v, %v]", c, high.cand, high.n, p, hi)
		}
	}
}

// pickInstance is the worker's count-and-draw input at the size the
// un-indexed scan hands Algorithm 1 directly: 2^16 local keys, a pivot near
// the middle of the active range.
func pickInstance() (local []keys.Key, lo, p, hi keys.Key) {
	local = scatter(9, 1<<16, 1, 0)[0]
	return local, keys.Key{Dist: 1 << 37}, keys.Key{Dist: 1 << 39}, keys.Key{Dist: 1<<40 - 1<<37}
}

func TestSplitPickDoesNotAllocate(t *testing.T) {
	local, lo, p, hi := pickInstance()
	rng := xrand.New(1)
	if allocs := testing.AllocsPerRun(20, func() { splitPick(rng, local, lo, p, hi) }); allocs != 0 {
		t.Errorf("splitPick allocates %.0f times per call, want 0", allocs)
	}
}

func BenchmarkWorkerCountPick(b *testing.B) {
	local, lo, p, hi := pickInstance()
	rng := xrand.New(1)
	b.ReportAllocs()
	b.SetBytes(int64(len(local)) * 16)
	for b.Loop() {
		low, high := splitPick(rng, local, lo, p, hi)
		if low.n == 0 || high.n == 0 {
			b.Fatal("degenerate instance")
		}
	}
}

// rogueWorker plays an honest selection worker except that its answers to
// queries of kind `target` (its opening message, for msgStats) are whatever
// corrupt makes of the honest ones.
func rogueWorker(local []keys.Key, target uint8, corrupt func(honest []byte) []byte) kmachine.Program {
	return func(m kmachine.Env) error {
		stats := encodeStats(m.Rand(), local)
		if target == msgStats {
			stats = corrupt(stats)
		}
		m.Send(0, stats)
		m.EndRound()
		for {
			query := m.Gather(1)[0].Payload
			var reply []byte
			switch lo, a, b := readKeys(query); query[0] {
			case msgSplit:
				reply = encodeSplitReply(splitPick(m.Rand(), local, lo, a, b))
			case msgCount:
				reply = []byte{msgCountReply, byte(seqselect.CountInRange(local, lo, a))}
			case msgMedianQuery:
				reply = encodeMedianReply(local, lo, a)
			case msgGather:
				reply = encodeGatherReply(local, lo, a)
			default:
				return nil // finished: the leader accepted the corrupt reply
			}
			if query[0] == target {
				reply = corrupt(reply)
			}
			m.Send(0, reply)
			m.EndRound()
		}
	}
}

// readKeys decodes the up-to-three keys that follow a query's kind byte.
func readKeys(query []byte) (a, b, c keys.Key) {
	r := wire.NewReader(query[1:])
	return r.Key(), r.Key(), r.Key()
}

func TestMalformedRepliesFailTheRun(t *testing.T) {
	// The exact-answer contract: a reply the leader cannot trust ends the
	// run with an error. It must never decode as a count (a truncated varint
	// reads as 0) and move the boundary. At the default 64-byte link the
	// search splits before it gathers, so both kinds of reply are reached.
	locals := scatter(21, 90, 3, 0) // 30 keys each, fewer than 127: one-byte varints
	splitReply := func(nLow, nHigh byte, cands ...keys.Key) []byte {
		reply := []byte{msgSplitReply, nLow, nHigh}
		for _, c := range cands {
			reply = append(reply, encodeSplitReply(pick{1, c}, pick{})[3:]...)
		}
		return reply
	}
	cases := []struct {
		name    string
		proto   string
		target  uint8
		corrupt func(honest []byte) []byte
	}{
		{"stats without the candidate", "alg1", msgStats, func(h []byte) []byte { return h[:len(h)-16] }},
		{"stats candidate above the maximum", "alg1", msgStats, func(h []byte) []byte {
			return append(h[:len(h)-16], splitReply(1, 0, keys.MaxKey)[3:]...)
		}},
		{"split truncated to its kind", "alg1", msgSplit, func(h []byte) []byte { return h[:1] }},
		{"split truncated mid-candidate", "alg1", msgSplit, func(h []byte) []byte { return h[:len(h)-1] }},
		{"split answered with a count reply", "alg1", msgSplit, func(h []byte) []byte { return []byte{msgCountReply, 3} }},
		{"split without candidates", "alg1", msgSplit, func(h []byte) []byte { return h[:3] }},
		{"split with one candidate for two sides", "alg1", msgSplit, func(h []byte) []byte { return h[:3+16] }},
		{"split counts that do not add up", "alg1", msgSplit, func(h []byte) []byte { h[1]++; return h }},
		{"split candidate outside its side", "alg1", msgSplit, func(h []byte) []byte {
			return splitReply(h[1], h[2], keys.MaxKey, keys.MaxKey)
		}},
		{"count truncated", "binary-search", msgCount, func(h []byte) []byte { return h[:1] }},
		{"count answered with a split reply", "binary-search", msgCount, func(h []byte) []byte { return splitReply(0, 0) }},
		{"count above what the worker holds", "binary-search", msgCount, func(h []byte) []byte { return []byte{msgCountReply, 31} }},
		{"count truncated after an honest median", "saukas-song", msgCount, func(h []byte) []byte { return h[:1] }},
		{"gather truncated to its kind", "alg1", msgGather, func(h []byte) []byte { return h[:1] }},
		{"gather answered with a split reply", "alg1", msgGather, func(h []byte) []byte { return splitReply(0, 0) }},
		{"gather count that differs from the known count", "alg1", msgGather, func(h []byte) []byte {
			// A well-formed reply one key longer: the last key twice.
			return append(append([]byte{msgGatherReply, h[1] + 1}, h[2:]...), h[len(h)-16:]...)
		}},
		{"gather key outside the range", "alg1", msgGather, func(h []byte) []byte {
			return append(h[:len(h)-16], splitReply(1, 0, keys.MaxKey)[3:]...)
		}},
		{"gather with a short key list", "alg1", msgGather, func(h []byte) []byte { return h[:len(h)-16] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			progs := []kmachine.Program{
				func(m kmachine.Env) error {
					res, err := protocols[c.proto](m, 0, locals[0], 45, Options{})
					if err == nil {
						t.Errorf("leader returned boundary %v", res.Boundary)
					}
					return err
				},
				func(m kmachine.Env) error {
					_, err := protocols[c.proto](m, 0, locals[1], 45, Options{})
					return err
				},
				rogueWorker(locals[2], c.target, c.corrupt),
			}
			_, err := kmachine.RunPrograms(kmachine.Config{K: 3, Seed: 21}, progs)
			if err == nil || !strings.Contains(err.Error(), "dsel:") {
				t.Errorf("run must fail with a dsel error, got %v", err)
			}
		})
	}
}

func TestSelectionUnderTightBandwidth(t *testing.T) {
	// B = 50 bytes: every protocol message still fits, stats replies may
	// stagger; correctness must be unaffected.
	locals := scatter(8, 200, 6, 0)
	for name, proto := range protocols {
		res, union, _ := runSelection(t, 8, 50, locals, 77, proto)
		checkExact(t, name, res, union, locals, 77)
	}
}

// Property test: random instances, all protocols, exact agreement with the
// oracle.
func TestSelectionProperty(t *testing.T) {
	prop := func(seed uint64, rawN, rawK, rawL uint16) bool {
		n := int(rawN)%200 + 1
		k := int(rawK)%8 + 1
		l := int(rawL)%n + 1
		locals := scatter(seed, n, k, int(seed%4))
		wantBoundary, _ := oracle(locals, l)
		for _, proto := range protocols {
			res, union, _ := runSelection(t, seed, 0, locals, l, proto)
			if res.Boundary != wantBoundary || len(union) != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("selection property failed: %v", err)
	}
}
