package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// config is what one pass over one workload is given.
type config struct {
	seed    uint64
	seconds time.Duration // measuring time of the pass; set-up and warm-up come on top
	rounds  int           // the measuring time is spent in this many rounds
	warm    time.Duration // driven but not measured, after every bring-up
	size    sizes
	traces  *traceLog // where the traced pass keeps its spans; nil keeps none
	log     io.Writer
}

// sliceWidth is the stretch of time the end-to-end pass ranks quiet against
// disturbed by. Shorter finds more quiet moments between a neighbour's
// bursts; much shorter and the slowest workload completes too few queries
// in one for its rate to mean anything.
const sliceWidth = 500 * time.Millisecond

// result is one pass's outcome: the values by metric name, how much each
// end-to-end value moved between the windows of this one run, and the
// failure accounting the contract asks for.
type result struct {
	vals      values
	spreads   map[string]float64
	attempted int
	failed    int
	verified  int // replies compared with the oracle
}

// runner is a workload with its point type hidden.
type runner interface {
	endToEnd(cfg config) (result, error)
	layers(cfg config) (result, error)
}

type bench[P any] struct{ spec spec[P] }

// phase adds one phase's accounting to the result and prints its line,
// with the first few of its errors.
func (r *result) phase(cfg config, workload, name string, attempted, failed int, errs []error) {
	r.attempted += attempted
	r.failed += failed
	fmt.Fprintf(cfg.log, "%-14s %-8s attempted %6d  succeeded %6d  failed %d\n",
		workload, name, attempted, attempted-failed, failed)
	printFirst(cfg, workload, name, errs)
}

func printFirst(cfg config, workload, name string, errs []error) {
	for _, err := range errs[:min(len(errs), 3)] {
		fmt.Fprintf(cfg.log, "%-14s %-8s   %v\n", workload, name, err)
	}
}

// settle checks the kept replies against the oracle: every mismatch is a
// failure, on top of the calls that failed outright.
func settle[P any](r *result, cfg config, s *spec[P], o *oracle[P], answers []answer) {
	mismatches := s.verify(o, answers)
	r.verified = len(answers)
	r.failed += len(mismatches)
	fmt.Fprintf(cfg.log, "%-14s %-8s compared  %6d  matched   %6d  failed %d\n",
		s.name, "oracle", len(answers), len(answers)-len(mismatches), len(mismatches))
	printFirst(cfg, s.name, "oracle", mismatches)
}

// lap is a series of rounds driven the same way, accumulated: the whole
// end-to-end pass, or one side — bare or traced — of the traced pass.
type lap struct {
	rounds  []slice // each round's measuring window, whole
	calls   int
	failed  int
	errs    []error
	answers []answer // the replies kept for the oracle
	// Sums over successful replies, from QueryStats.
	iterations, survivors, fellBack float64
}

func (l *lap) add(t *tally, warm, window time.Duration) {
	l.rounds = append(l.rounds, slices(t, warm, window, 1)...)
	l.calls += len(t.samples)
	l.failed += t.failed
	l.errs = append(l.errs, t.errs...)
	l.answers = append(l.answers, t.answers...)
	l.iterations += float64(t.iterations)
	l.survivors += float64(t.survivors)
	l.fellBack += float64(t.fellBack)
}

// rates is the completed queries per second of each round.
func (l *lap) rates() []float64 {
	out := make([]float64, len(l.rounds))
	for i, r := range l.rounds {
		out[i] = r.rate()
	}
	return out
}

// pool is every latency of every round, sorted.
func (l *lap) pool() []float64 {
	var out []float64
	for _, r := range l.rounds {
		out = append(out, r.lat...)
	}
	sort.Float64s(out)
	return out
}

// endToEnd is the tracing-off pass: what a caller of the cluster sees. It
// runs in rounds, each a cluster of its own: bring-up timed to the first
// reply, a warm-up, one measuring window, a heap reading with the cluster
// still up, and a full close. Rounds spread every metric's samples over the
// whole run, which on a shared box is what makes two runs agree.
func (b *bench[P]) endToEnd(cfg config) (result, error) {
	s := &b.spec
	res := result{vals: values{}, spreads: map[string]float64{}}
	window := cfg.seconds / time.Duration(cfg.rounds)
	perRound := max(int((window+sliceWidth/2)/sliceWidth), 1)

	var (
		run           lap
		first         []answer // each bring-up's first reply
		setupErrs     []error
		fine          []slice // every round's window in slices of sliceWidth
		setups, heaps []float64
	)
	for r := 0; r < cfg.rounds; r++ {
		runtime.GC()
		t0 := time.Now()
		c, err := s.bringUp(cfg.seed, handles{})
		if err != nil {
			return res, err
		}
		a, err := s.call(c.rcs[0], 0, s.query(0))
		took := time.Since(t0)
		if err != nil {
			setupErrs = append(setupErrs, err)
		} else {
			first = append(first, a)
		}
		setups = append(setups, took.Seconds())
		if r > 0 {
			c.keep = keepFew
		}

		t := s.drive(c, cfg.warm, window, nil)

		// Live heap with the cluster still up: shards, indexes and
		// connection buffers, after what the queries allocated is collected.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapAlloc)/(1<<20))
		if err := c.close(); err != nil {
			return res, fmt.Errorf("%s: close: %w", s.name, err)
		}

		run.add(t, cfg.warm, window)
		fine = append(fine, slices(t, cfg.warm, window, perRound)...)
	}
	res.phase(cfg, s.name, "setup", cfg.rounds, len(setupErrs), setupErrs)
	res.phase(cfg, s.name, "measure", run.calls, run.failed, run.errs)

	quietQPS, pool := quietHalf(fine)
	if len(pool) == 0 {
		return res, fmt.Errorf("%s: no query completed inside the measuring windows", s.name)
	}
	if len(setups) > 1 {
		setups = setups[1:] // the first bring-up also pays for the process's cold start
	}
	res.vals["qps"] = quietQPS
	res.vals["latency_p50_ms"] = quantile(pool, 0.50)
	res.vals["latency_p95_ms"] = quantile(pool, 0.95)
	res.vals["setup_s"] = median(setups)
	res.vals["live_heap_mb"] = median(heaps)
	var p50, p95 []float64 // one value per round, for the spreads
	for _, r := range run.rounds {
		sort.Float64s(r.lat)
		p50 = append(p50, quantile(r.lat, 0.50))
		p95 = append(p95, quantile(r.lat, 0.95))
	}
	res.spreads["qps"] = spread(run.rates())
	res.spreads["latency_p50_ms"] = spread(p50)
	res.spreads["latency_p95_ms"] = spread(p95)
	res.spreads["setup_s"] = spread(setups)
	res.spreads["live_heap_mb"] = spread(heaps)
	fmt.Fprintf(cfg.log, "%-14s latency sample: %d queries in the quiet half of %d slices, %d beyond p95\n",
		s.name, len(pool), len(fine), len(pool)-int(0.95*float64(len(pool))))

	// The oracle's copy of the data is built only now, with the clusters
	// down: earlier it would sit in the heap this pass reports.
	o, err := newOracle(s)
	if err != nil {
		return res, err
	}
	settle(&res, cfg, s, o, append(first, run.answers...))
	return res, nil
}
