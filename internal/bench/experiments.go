package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"distknn/internal/core"
	"distknn/internal/dsel"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/seqselect"
	"distknn/internal/stats"
	"distknn/internal/xrand"
)

// Experiment couples a stable experiment id (E1–E9, addressable from
// cmd/knnbench -experiment) with its runner.
type Experiment struct {
	ID          string
	Description string
	Run         func(p Params) ([]*Table, error)
}

// Experiments lists every reproducible artifact, in table-id order.
var Experiments = []Experiment{
	{"figure2", "Figure 2: speedup of Algorithm 2 over the simple method", Figure2},
	{"rounds", "Theorem 2.4: rounds are O(log l) and independent of k", RoundsScaling},
	{"messages", "Theorem 2.4: message complexity is O(k log l)", MessageScaling},
	{"alg1", "Theorem 2.2: Algorithm 1 selection takes O(log n) rounds", Alg1Rounds},
	{"sampling", "Lemma 2.3: pruning keeps <= 11*l candidates w.h.p.", SamplingValidation},
	{"pivot", "Lemma 2.1: pivots are uniform over the active range", PivotUniformity},
	{"baselines", "Section 1.4: comparison against prior-work baselines", Baselines},
	{"wallclock", "Section 3: wall-clock speedup as machines are added", WallClock},
	{"constants", "Ablation: Lemma 2.3 constants (SampleFactor x CutFactor)", Constants},
}

// ByID finds an experiment by its id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// E1: Figure 2
// ---------------------------------------------------------------------------

// Figure2 reproduces the paper's only results figure: the ratio of the
// simple method's execution time to Algorithm 2's, as a function of ℓ, one
// series per machine count k. Time is modeled as rounds × link latency plus
// the measured parallel local computation; the raw rounds and bytes ratios
// are reported alongside.
func Figure2(p Params) ([]*Table, error) {
	p = p.withDefaults()
	t := &Table{
		ID:    "E1",
		Title: "Figure 2 — execution-time ratio simple/alg2 (higher = bigger win)",
		Note: fmt.Sprintf("points/machine=%d reps=%d round-latency=%v; paper reports up to ~80x at k=128",
			p.PerMachine, p.Reps, p.Model.RoundLatency),
		Header: []string{"k", "l", "time_ratio", "rounds_ratio", "bytes_ratio",
			"alg2_rounds", "simple_rounds", "alg2_ms", "simple_ms"},
	}
	for _, k := range p.ks([]int{2, 8, 32, 128}) {
		in := NewInstance(p.Seed, k, p.PerMachine)
		for _, l := range p.ls([]int{8, 32, 128, 512, 2048, 8192}) {
			if l > k*p.PerMachine {
				continue
			}
			a2, err := in.reps(p, p.Reps, l, core.Alg2, 0, core.Config{})
			if err != nil {
				return nil, err
			}
			sm, err := in.reps(p, p.Reps, l, core.Simple, 1, core.Config{})
			if err != nil {
				return nil, err
			}
			// ratio is the geometric mean over reps of simple's x over alg2's.
			ratio := func(x func(rep) float64) float64 {
				rs := make([]float64, len(a2))
				for i := range rs {
					rs[i] = stats.Ratio(x(sm[i]), x(a2[i]))
				}
				return stats.GeoMean(rs)
			}
			modeled := func(r rep) float64 { return float64(r.met.ModeledTime(p.Model)) }
			bytes := func(r rep) float64 { return float64(r.met.Bytes) }
			t.AddRow(d(k), d(l),
				f(ratio(modeled)), f(ratio(rounds)), f(ratio(bytes)),
				f(mean(a2, rounds)), f(mean(sm, rounds)),
				f(mean(a2, p.modeledMs)), f(mean(sm, p.modeledMs)))
		}
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------------------
// E2 / E3: round and message scaling
// ---------------------------------------------------------------------------

// RoundsScaling sweeps ℓ at fixed k and k at fixed ℓ, recording rounds for
// Algorithm 2 and DirectKNN. Theorem 2.4 predicts the first sweep grows like
// log ℓ and the second is flat for Algorithm 2 (Direct picks up a log k).
func RoundsScaling(p Params) ([]*Table, error) {
	p = p.withDefaults()
	kFixed := 16
	lFixed := 128
	if p.Quick {
		kFixed, lFixed = 4, 32
	}
	tL := &Table{
		ID:     "E2a",
		Title:  fmt.Sprintf("rounds vs l (k=%d)", kFixed),
		Header: []string{"l", "alg2_rounds", "alg2_per_log2l", "direct_rounds", "alg2_iters"},
	}
	in := NewInstance(p.Seed, kFixed, p.PerMachine)
	for _, l := range p.ls([]int{4, 16, 64, 256, 1024, 4096}) {
		a2, dr, err := in.alg2VsDirect(p, l)
		if err != nil {
			return nil, err
		}
		mean2 := mean(a2, rounds)
		tL.AddRow(d(l), f(mean2), f(mean2/math.Log2(float64(l)+1)),
			f(mean(dr, rounds)), f(mean(a2, iterations)))
	}
	tK := &Table{
		ID:     "E2b",
		Title:  fmt.Sprintf("rounds vs k (l=%d)", lFixed),
		Note:   "Theorem 2.4: the alg2 column should stay flat as k grows",
		Header: []string{"k", "alg2_rounds", "direct_rounds"},
	}
	for _, k := range p.ks([]int{2, 4, 8, 16, 32, 64, 128}) {
		a2, dr, err := NewInstance(p.Seed, k, p.PerMachine).alg2VsDirect(p, lFixed)
		if err != nil {
			return nil, err
		}
		tK.AddRow(d(k), f(mean(a2, rounds)), f(mean(dr, rounds)))
	}
	return []*Table{tL, tK}, nil
}

// alg2VsDirect runs Algorithm 2 and DirectKNN on the same p.Reps queries.
func (in *Instance) alg2VsDirect(p Params, l int) (a2, dr []rep, err error) {
	if a2, err = in.reps(p, p.Reps, l, core.Alg2, 0, core.Config{}); err != nil {
		return nil, nil, err
	}
	dr, err = in.reps(p, p.Reps, l, core.Direct, 1, core.Config{})
	return a2, dr, err
}

// MessageScaling mirrors RoundsScaling for message and byte counts;
// Theorem 2.4 predicts messages ≈ c·k·log ℓ.
func MessageScaling(p Params) ([]*Table, error) {
	p = p.withDefaults()
	kFixed := 16
	lFixed := 128
	if p.Quick {
		kFixed, lFixed = 4, 32
	}
	tL := &Table{
		ID:     "E3a",
		Title:  fmt.Sprintf("messages vs l (k=%d)", kFixed),
		Header: []string{"l", "messages", "msgs_per_klog2l", "kilobytes"},
	}
	in := NewInstance(p.Seed, kFixed, p.PerMachine)
	for _, l := range p.ls([]int{4, 16, 64, 256, 1024, 4096}) {
		a2, err := in.reps(p, p.Reps, l, core.Alg2, 0, core.Config{})
		if err != nil {
			return nil, err
		}
		norm := float64(kFixed) * math.Log2(float64(l)+1)
		tL.AddRow(d(l), f(mean(a2, messages)), f(mean(a2, messages)/norm), f(mean(a2, kilobytes)))
	}
	tK := &Table{
		ID:     "E3b",
		Title:  fmt.Sprintf("messages vs k (l=%d)", lFixed),
		Note:   "messages should grow linearly in k: msgs_per_klog2l stays flat",
		Header: []string{"k", "messages", "msgs_per_klog2l", "kilobytes"},
	}
	for _, k := range p.ks([]int{2, 4, 8, 16, 32, 64, 128}) {
		a2, err := NewInstance(p.Seed, k, p.PerMachine).reps(p, p.Reps, lFixed, core.Alg2, 0, core.Config{})
		if err != nil {
			return nil, err
		}
		norm := float64(k) * math.Log2(float64(lFixed)+1)
		tK.AddRow(d(k), f(mean(a2, messages)), f(mean(a2, messages)/norm), f(mean(a2, kilobytes)))
	}
	return []*Table{tL, tK}, nil
}

// ---------------------------------------------------------------------------
// E4: Algorithm 1 on raw selection
// ---------------------------------------------------------------------------

// Alg1Rounds measures the bare selection protocol (no ℓ-NN layer) as n
// grows, on benign and adversarially sorted partitions. Theorem 2.2
// predicts ≈ c·log n rounds regardless of layout.
func Alg1Rounds(p Params) ([]*Table, error) {
	p = p.withDefaults()
	k := 8
	ns := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if p.Quick {
		k = 4
		ns = []int{1 << 8, 1 << 10}
	}
	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("Algorithm 1 selection rounds vs n (k=%d, rank n/2)", k),
		Header: []string{"n", "partition", "rounds", "rounds_per_log2n", "iterations", "messages"},
	}
	for _, n := range ns {
		for _, strat := range []points.Partitioner{points.PartitionRandom, points.PartitionSorted} {
			var rs, iters, msgs []float64
			for rep := 0; rep < p.Reps; rep++ {
				seed := xrand.DeriveSeed(p.Seed, uint64(n*7+rep))
				rng := xrand.New(seed)
				global := points.GenUniformScalars(rng, n, points.PaperDomain)
				parts, err := points.Partition(global, k, strat, rng)
				if err != nil {
					return nil, err
				}
				sim := kmachine.Config{K: k, Seed: seed, BandwidthBytes: p.Bandwidth}
				res, met, err := dsel.Run(sim, dsel.FindLSmallest, 0, points.ScalarKeys(parts), n/2, dsel.Options{})
				if err != nil {
					return nil, err
				}
				rs = append(rs, float64(met.Rounds))
				iters = append(iters, float64(res[0].Iterations))
				msgs = append(msgs, float64(met.Messages))
			}
			avg := stats.Summarize(rs).Mean
			t.AddRow(d(n), strat.String(), f(avg), f(avg/math.Log2(float64(n))),
				f(stats.Summarize(iters).Mean), f(stats.Summarize(msgs).Mean))
		}
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------------------
// E5: Lemma 2.3 sampling validation
// ---------------------------------------------------------------------------

// SamplingValidation measures the distribution of surviving candidates after
// Algorithm 2's prune. Lemma 2.3: at most 11ℓ survive with probability
// ≥ 1 − 2/ℓ².
func SamplingValidation(p Params) ([]*Table, error) {
	p = p.withDefaults()
	k := 16
	if p.Quick {
		k = 4
	}
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("Lemma 2.3 — surviving candidates after the prune (k=%d)", k),
		Note:  "survivors should sit well below the 11l bound; fallbacks bound by 2/l^2",
		Header: []string{"l", "mean_surv", "p95_surv", "max_surv", "bound_11l",
			"frac_over_11l", "fallbacks", "mc_bound_2_l2"},
	}
	in := NewInstance(p.Seed, k, p.PerMachine)
	var atSample []string
	for _, l := range p.ls([]int{16, 64, 256, 1024}) {
		if l > k*p.PerMachine {
			continue
		}
		if (core.Config{L: l}).CompleteSample(p.PerMachine) {
			atSample = append(atSample, d(l))
		}
		a2, err := in.reps(p, p.Reps*4, l, core.Alg2, 0, core.Config{})
		if err != nil {
			return nil, err
		}
		surv := each(a2, survivors)
		over, fallbacks := 0, 0
		for _, r := range a2 {
			if r.res.Survivors > int64(11*l) {
				over++
			}
			if r.res.FellBack {
				fallbacks++
			}
		}
		s := stats.Summarize(surv)
		t.AddRow(d(l), f(s.Mean), f(s.P95), f(s.Max), d(11*l),
			f(float64(over)/float64(len(surv))), d(fallbacks), f(2/float64(l*l)))
	}
	if len(atSample) > 0 {
		t.Note += fmt.Sprintf("; l=%s finish at the sample (every S_i sampled whole): no prune runs, "+
			"survivors are the exact count it would keep and no fallback can occur", strings.Join(atSample, ","))
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------------------
// E6: Lemma 2.1 pivot uniformity
// ---------------------------------------------------------------------------

// PivotUniformity observes every pivot drawn by Algorithm 1 across repeated
// runs, maps it to its rank within the active range, and chi-square-tests
// the bucketed ranks against uniformity (Lemma 2.1).
func PivotUniformity(p Params) ([]*Table, error) {
	p = p.withDefaults()
	k, n := 8, 1<<12
	reps := p.Reps * 40
	if p.Quick {
		k, n = 4, 1<<9
		reps = p.Reps * 20
	}
	rng := xrand.New(p.Seed)
	global := points.GenUniformScalars(rng, n, points.PaperDomain)
	parts, err := points.Partition(global, k, points.PartitionRandom, rng)
	if err != nil {
		return nil, err
	}
	locals := points.ScalarKeys(parts)
	var all []keys.Key
	for _, ks := range locals {
		all = append(all, ks...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })

	// OnPivot runs on the leader only, one run at a time.
	type pivotEvent struct{ pivot, lo, hi keys.Key }
	var events []pivotEvent
	opts := dsel.Options{OnPivot: func(pivot, lo, hi keys.Key, total int64) {
		events = append(events, pivotEvent{pivot, lo, hi})
	}}
	for rep := 0; rep < reps; rep++ {
		sim := kmachine.Config{K: k, Seed: xrand.DeriveSeed(p.Seed, uint64(rep)), BandwidthBytes: p.Bandwidth}
		if _, _, err := dsel.Run(sim, dsel.FindLSmallest, 0, locals, n/2, opts); err != nil {
			return nil, err
		}
	}

	// Bucket each pivot's 0-based rank within its active range. Ranges
	// with few points cannot populate all buckets (rank·B/total skips
	// values), which would masquerade as non-uniformity, so only ranges
	// with ≥ 20 points per bucket contribute.
	const buckets = 10
	const minTotal = 20 * buckets
	counts := make([]int, buckets)
	skipped := 0
	for _, ev := range events {
		total := seqselect.CountInRange(all, ev.lo, ev.hi)
		rank := seqselect.CountInRange(all, ev.lo, ev.pivot) - 1
		if rank < 0 {
			continue
		}
		if total < minTotal {
			skipped++
			continue
		}
		b := rank * buckets / total
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	chi2, dof := stats.ChiSquareUniform(counts)
	crit := stats.ChiSquareCritical999(dof)
	verdict := "uniform (accept)"
	if chi2 > crit {
		verdict = "NOT uniform (reject)"
	}
	t := &Table{
		ID:    "E6",
		Title: fmt.Sprintf("Lemma 2.1 — pivot rank distribution over %d pivots", len(events)-skipped),
		Note: fmt.Sprintf("chi2=%.2f dof=%d crit(99.9%%)=%.2f → %s (%d small-range pivots excluded)",
			chi2, dof, crit, verdict, skipped),
		Header: []string{"bucket", "count"},
	}
	for i, c := range counts {
		t.AddRow(fmt.Sprintf("[%d%%,%d%%)", i*buckets, (i+1)*buckets), d(c))
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------------------
// E7: baselines
// ---------------------------------------------------------------------------

// Baselines runs the full algorithm roster over a (k, ℓ) grid. Expected
// shape: simple = Θ(ℓ) rounds; binsearch ≈ constant (domain bits) rounds;
// saukas-song = Θ(log kℓ); alg2 smallest and k-independent.
func Baselines(p Params) ([]*Table, error) {
	p = p.withDefaults()
	t := &Table{
		ID:     "E7",
		Title:  "algorithm comparison (rounds / messages / traffic / modeled time)",
		Header: []string{"k", "l", "algo", "rounds", "messages", "kilobytes", "iters", "modeled_ms"},
	}
	for _, k := range p.ks([]int{4, 16, 64}) {
		in := NewInstance(p.Seed, k, p.PerMachine)
		for _, l := range p.ls([]int{64, 1024}) {
			if l > k*p.PerMachine {
				continue
			}
			for _, alg := range core.Algorithms() {
				runs, err := in.reps(p, p.Reps, l, alg, 0, core.Config{})
				if err != nil {
					return nil, err
				}
				t.AddRow(d(k), d(l), alg.String(),
					f(mean(runs, rounds)), f(mean(runs, messages)),
					f(mean(runs, kilobytes)), f(mean(runs, iterations)),
					f(mean(runs, p.modeledMs)))
			}
		}
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------------------
// E8: wall-clock parallel speedup
// ---------------------------------------------------------------------------

// WallClock fixes the total dataset size and splits it over more and more
// machines (goroutines), reproducing the Section 3 observation that the
// measured speedup grows with k because per-machine local computation
// shrinks. Reports the parallel critical path and modeled time per k.
func WallClock(p Params) ([]*Table, error) {
	p = p.withDefaults()
	totalN := 1 << 19
	l := 256
	ks := p.Ks
	if len(ks) == 0 {
		ks = []int{2, 4, 8, 16, 32}
	}
	if p.Quick {
		totalN = 1 << 12
		l = 32
		ks = []int{2, 4}
	}
	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("parallel speedup at fixed total n=%d, l=%d", totalN, l),
		Note:  "critical_ms is the measured parallel compute path; speedup is vs the smallest k",
		Header: []string{"k", "points/machine", "critical_ms", "modeled_ms",
			"compute_speedup", "modeled_speedup"},
	}
	var baseCritical, baseModeled float64
	for idx, k := range ks {
		in := NewInstance(p.Seed, k, totalN/k)
		a2, err := in.reps(p, p.Reps, l, core.Alg2, 0, core.Config{})
		if err != nil {
			return nil, err
		}
		// Use the slowest machine's total compute, not the per-round
		// critical path: the workload is dominated by the single top-ℓ
		// scan, and summing per-round maxima would accumulate clock
		// jitter across ~100 rounds.
		c := mean(a2, func(r rep) float64 { return r.met.MaxMachineCompute().Seconds() * 1e3 })
		m := mean(a2, func(r rep) float64 {
			return (time.Duration(r.met.Rounds)*p.Model.RoundLatency + r.met.MaxMachineCompute()).Seconds() * 1e3
		})
		if idx == 0 {
			baseCritical, baseModeled = c, m
		}
		t.AddRow(d(k), d(totalN/k), f(c), f(m),
			f(stats.Ratio(baseCritical, c)), f(stats.Ratio(baseModeled, m)))
	}
	return []*Table{t}, nil
}

// ---------------------------------------------------------------------------
// E9: constants ablation
// ---------------------------------------------------------------------------

// Constants sweeps the Lemma 2.3 constants. Small factors prune harder but
// fail (fall back) more often; the paper's (12, 21) should show a near-zero
// fallback rate with a modest survivor count.
func Constants(p Params) ([]*Table, error) {
	p = p.withDefaults()
	k, l := 8, 256
	samples := []int{2, 4, 8, 12}
	cuts := []int{3, 7, 21, 42}
	if p.Quick {
		// ℓ = 128: the 32- and 96-key samples are partial, so the prune runs
		// in every cell (at ℓ ≤ 84 the paper's factor finishes at the sample).
		k, l = 4, 128
		samples = []int{4, 12}
		cuts = []int{7, 21}
	}
	t := &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("sampling-constant ablation (k=%d, l=%d)", k, l),
		Note:   "paper uses sample=12, cut=21",
		Header: []string{"sample_factor", "cut_factor", "fallback_rate", "mean_surv", "surv_per_l", "alg2_rounds"},
	}
	in := NewInstance(p.Seed, k, p.PerMachine)
	for _, sf := range samples {
		for _, cf := range cuts {
			cfg := core.Config{SampleFactor: sf, CutFactor: cf}
			a2, err := in.reps(p, p.Reps*2, l, core.Alg2, 0, cfg)
			if err != nil {
				return nil, err
			}
			fallbacks := 0
			for _, r := range a2 {
				if r.res.FellBack {
					fallbacks++
				}
			}
			s := mean(a2, survivors)
			t.AddRow(d(sf), d(cf), f(float64(fallbacks)/float64(p.Reps*2)),
				f(s), f(s/float64(l)), f(mean(a2, rounds)))
		}
	}
	return []*Table{t}, nil
}
