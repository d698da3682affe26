package core

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// shardedInstance generates sum(sizes) uniform scalars and a query, and
// deals the points out in consecutive runs of the given sizes, so shards can
// be short or empty.
func shardedInstance(seed uint64, sizes []int) ([][]points.Item, points.Scalar, *points.Set[points.Scalar]) {
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	rng := xrand.New(seed)
	global := points.GenUniformScalars(rng, n, points.PaperDomain)
	q := points.Scalar(rng.Uint64N(points.PaperDomain))
	all := global.Items(q)
	locals := make([][]points.Item, len(sizes))
	for i, sz := range sizes {
		locals[i], all = all[:sz], all[sz:]
	}
	return locals, q, global
}

// sampleRounds is how many rounds Algorithm 2's sample step takes at link
// budget b (0: the default, negative: unlimited): each worker's sample
// message, sized by the encoder, crosses its own link to the leader in
// ⌈bytes/b⌉ rounds.
func sampleRounds(b int, cfg Config, locals [][]points.Item) int {
	if b == 0 {
		b = kmachine.DefaultBandwidth
	}
	rounds := 0
	for id, local := range locals {
		if id == cfg.Leader {
			continue
		}
		n := min(len(local), cfg.L)
		var w wire.Writer
		w.U8(kindSamples)
		w.Varint(uint64(n))
		w.Keys(make([]keys.Key, min(n, sampleSize(cfg.L, cfg.sampleFactor()))))
		r := 1
		if b > 0 {
			r = (w.Len() + kmachine.MessageOverheadBytes + b - 1) / b
		}
		rounds = max(rounds, r)
	}
	return rounds
}

// knnRounds is Algorithm 2's exact round count on k ≥ 2 machines when every
// message but the samples fits one round (the prelude's and dsel's do at
// B = 64): the samples' rounds, then the finish broadcast, or the prune,
// count and proceed rounds and Algorithm 1's 2·iterations + 2. With every
// sample inside one round too, that is 2 and 2·iterations + 6.
func knnRounds(b int, cfg Config, locals [][]points.Item, complete bool, iterations int) int {
	if complete {
		return sampleRounds(b, cfg, locals) + 1
	}
	return sampleRounds(b, cfg, locals) + 2*iterations + 5
}

// completeSample reports whether every machine samples its whole local
// top-ℓ, the condition under which KNN finishes at the sample.
func completeSample(cfg Config, locals [][]points.Item) bool {
	for _, local := range locals {
		if !cfg.CompleteSample(len(local)) {
			return false
		}
	}
	return true
}

// shardLayouts returns the shard sizes the finish property runs for k
// machines and rank l: every shard holding more than ℓ, every shard short
// of ℓ, every even-numbered shard empty (machine 0's included), and a
// random mix.
func shardLayouts(rng *rand.Rand, k, l int) map[string][]int {
	full := make([]int, k)
	short := make([]int, k)
	holes := make([]int, k)
	mixed := make([]int, k)
	nonEmpty := k / 2
	if nonEmpty == 0 {
		nonEmpty = 1
	}
	total := 0
	for i := range k {
		full[i] = 2*l + i
		short[i] = (l+k-1)/k + i%2
		if i%2 == 1 || k == 1 {
			holes[i] = (l+nonEmpty-1)/nonEmpty + i%3
		}
		switch rng.IntN(3) {
		case 1:
			mixed[i] = 1 + rng.IntN(l)
		case 2:
			mixed[i] = l + rng.IntN(l+1)
		}
		total += mixed[i]
	}
	if total < l {
		mixed[k-1] += l - total
	}
	return map[string][]int{"full": full, "short": short, "holes": holes, "mixed": mixed}
}

func TestKNNFinishProperty(t *testing.T) {
	// Over shards longer and shorter than ℓ and empty ones, Algorithm 2 must
	// match the sequential oracle, every machine must agree on the result's
	// metadata, and the cost must follow the law: a complete sample costs
	// the samples' rounds plus one, 2(k−1) messages and no iteration, with
	// exactly the survivors the prune would have kept; otherwise the
	// unchanged prune-and-select law. The leader is machine 0, empty in the
	// "holes" layout, or machine k−1. A single machine never communicates.
	rng := xrand.New(39)
	for _, k := range []int{1, 2, 4, 8} {
		for _, l := range []int{1, 16, 84, 85, 128} {
			for name, sizes := range shardLayouts(rng, k, l) {
				seed := uint64(1000*k + 10*l + len(name))
				locals, q, global := shardedInstance(seed, sizes)
				want := global.BruteKNN(q, l)
				for _, leader := range []int{0, k - 1}[:min(k, 2)] {
					for _, b := range []int{64, 8192, -1} {
						cfg := Config{Leader: leader, L: l}
						label := fmt.Sprintf("k=%d l=%d %s %v leader=%d B=%d", k, l, name, sizes, leader, b)
						res, union, met := runAlgo(t, seed, b, locals, cfg, KNN)
						if res.Boundary != want[l-1].Key {
							t.Fatalf("%s: boundary %v, oracle %v", label, res.Boundary, want[l-1].Key)
						}
						checkExactKNN(t, label, union, global, q, l)
						if k == 1 {
							if met.Rounds != 0 || met.Messages != 0 {
								t.Errorf("%s: %d rounds, %d messages, want none", label, met.Rounds, met.Messages)
							}
							continue
						}
						complete := completeSample(cfg, locals)
						if got, want := met.Rounds, knnRounds(b, cfg, locals, complete, res.Iterations); got != want {
							t.Errorf("%s: %d rounds for %d iterations (complete sample %v), want %d",
								label, got, res.Iterations, complete, want)
						}
						if !complete {
							continue
						}
						total := 0
						for _, sz := range sizes {
							total += min(sz, l)
						}
						cut := min(sampleSize(l, DefaultCutFactor), total)
						if met.Messages != int64(2*(k-1)) || res.Iterations != 0 || res.FellBack || res.Survivors != int64(cut) {
							t.Errorf("%s: %d messages, %d iterations, fell back %v, %d survivors; want %d, 0, false, %d",
								label, met.Messages, res.Iterations, res.FellBack, res.Survivors, 2*(k-1), cut)
						}
					}
				}
			}
		}
	}
}

// rogueSampler plays an honest Algorithm 2 worker except that corrupt
// rewrites the candidate count and keys of its sample message. corrupt sees
// every local key in ascending order and the honest sample.
func rogueSampler(cfg Config, local []points.Item, corrupt func(sorted, sample []keys.Key) (uint64, []keys.Key)) kmachine.Program {
	return func(m kmachine.Env) error {
		sorted := itemKeys(topL(local, len(local)))
		sample := sorted[:min(len(sorted), cfg.L, sampleSize(cfg.L, cfg.sampleFactor()))]
		n, sample := corrupt(sorted, append([]keys.Key(nil), sample...))
		var w wire.Writer
		w.U8(kindSamples)
		w.Varint(n)
		w.Keys(sample)
		m.Send(cfg.Leader, w.Bytes())
		m.EndRound()
		_, err := knnWorker(m, cfg, topL(local, cfg.L))
		return err
	}
}

func TestMalformedSamplesFailTheRun(t *testing.T) {
	// The leader decides the sample is complete from the lengths the samples
	// claim, so a sample that is not min(12·⌈log₂(ℓ+1)⌉, |S_i|) keys long,
	// or that claims more than ℓ candidates, must end the run with an
	// error, never a boundary. ℓ = 16 samples 60 keys, more than any S_i;
	// ℓ = 128 samples 96 of the 128.
	locals, _, _ := makeInstance(39, 900, 3, points.PartitionRandom)
	cases := []struct {
		name    string
		l       int
		corrupt func(sorted, sample []keys.Key) (uint64, []keys.Key)
	}{
		{"complete sample one key short", 16, func(_, s []keys.Key) (uint64, []keys.Key) { return 16, s[:len(s)-1] }},
		{"complete sample with a key twice", 16, func(_, s []keys.Key) (uint64, []keys.Key) { return 16, append(s, s[0]) }},
		{"fewer candidates than the sample carries", 16, func(_, s []keys.Key) (uint64, []keys.Key) { return 15, s }},
		{"more than l candidates", 16, func(all, _ []keys.Key) (uint64, []keys.Key) { return 17, all[:17] }},
		{"partial sample one key short", 128, func(_, s []keys.Key) (uint64, []keys.Key) { return 128, s[:len(s)-1] }},
		{"whole S_i where a partial sample is due", 128, func(all, _ []keys.Key) (uint64, []keys.Key) { return 128, all[:128] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Leader: 0, L: c.l}
			progs := []kmachine.Program{
				func(m kmachine.Env) error {
					res, err := KNN(m, cfg, locals[0])
					if err == nil {
						t.Errorf("leader returned boundary %v", res.Boundary)
					}
					return err
				},
				func(m kmachine.Env) error {
					_, err := KNN(m, cfg, locals[1])
					return err
				},
				rogueSampler(cfg, locals[2], c.corrupt),
			}
			_, err := kmachine.RunPrograms(kmachine.Config{K: 3, Seed: 39, BandwidthBytes: -1}, progs)
			if err == nil || !strings.Contains(err.Error(), "core:") {
				t.Errorf("run must fail with a core error, got %v", err)
			}
		})
	}
}

func TestTruncatedFinishFailsTheWorkers(t *testing.T) {
	// A finish frame cut short must fail every worker that receives it,
	// never read as a boundary and zero survivors.
	locals, _, _ := makeInstance(39, 90, 3, points.PartitionRandom)
	cfg := Config{Leader: 0, L: 16}
	var w wire.Writer
	w.U8(kindFinish)
	w.Key(keys.Key{Dist: 1 << 40, ID: 7})
	w.Varint(60)
	frame := w.Bytes()
	for _, cut := range []int{1, 9, len(frame) - 1} {
		t.Run(fmt.Sprintf("%d of %d bytes", cut, len(frame)), func(t *testing.T) {
			leader := func(m kmachine.Env) error {
				m.EndRound()
				m.Gather(m.K() - 1)
				m.Broadcast(frame[:cut])
				return nil
			}
			worker := func(m kmachine.Env) error {
				res, err := KNN(m, cfg, locals[m.ID()])
				if err == nil {
					t.Errorf("worker %d returned boundary %v", m.ID(), res.Boundary)
				}
				return err
			}
			_, err := kmachine.RunPrograms(kmachine.Config{K: 3, Seed: 39}, []kmachine.Program{leader, worker, worker})
			if err == nil || !strings.Contains(err.Error(), "core: bad finish message") {
				t.Errorf("run must fail with a bad finish message, got %v", err)
			}
		})
	}
}
