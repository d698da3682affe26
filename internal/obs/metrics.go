// Package obs is the telemetry sink for the serving stack: lock-cheap
// counters, gauges, and fixed-bucket histograms behind a named registry,
// per-epoch trace spans in a reusable ring, and an embedded admin HTTP
// server exposing JSON snapshots of both.
//
// The package is designed around one contract: instrumentation must be
// non-perturbing. Recording on the query path is a handful of atomic
// adds — no locks, no allocations — and every wall-clock reading either
// happens inside this package or flows only into its recorders, so
// knnlint's detsource analyzer can prove that time never feeds epoch
// computation. Snapshots pay all the cost on the read side.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. The bucket bounds
// are immutable after construction, so Observe is a linear scan over a
// small slice plus two atomic adds — no locks, no allocations.
type Histogram struct {
	bounds []int64 // upper bounds, ascending; observation v lands in the first bucket with v <= bound
	counts []atomic.Int64
	over   atomic.Int64 // observations above the last bound
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.over.Add(1)
}

// Stopwatch carries a start instant across struct fields or function
// boundaries so that the wall-clock read and the elapsed computation
// both live inside obs. Use it where the start := time.Now() local-
// variable pattern cannot apply (e.g. a timestamp stored in a struct).
type Stopwatch struct{ t time.Time }

// StartTimer begins a stopwatch.
func StartTimer() Stopwatch { return Stopwatch{t: time.Now()} }

// ObserveSince records the elapsed nanoseconds since the stopwatch
// started. A zero Stopwatch records nothing.
func (h *Histogram) ObserveSince(sw Stopwatch) {
	if sw.t.IsZero() {
		return
	}
	h.Observe(int64(time.Since(sw.t)))
}

// ExpBuckets returns n upper bounds starting at first and doubling.
func ExpBuckets(first int64, n int) []int64 {
	b := make([]int64, n)
	v := first
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// LatencyBuckets spans 1µs to ~33s in doubling steps — the default
// bounds for nanosecond latency histograms.
var LatencyBuckets = ExpBuckets(int64(time.Microsecond), 26)

// SizeBuckets spans 1 to 65536 in doubling steps — the default bounds
// for batch-size and occupancy histograms.
var SizeBuckets = ExpBuckets(1, 17)

// Registry is a named collection of metrics. Get-or-create methods are
// mutex-guarded (registration is cold); the returned recorders are
// lock-free. A Func gauge is evaluated at snapshot time, for values
// that already live elsewhere as atomics (e.g. wire pool statistics).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Func registers (or replaces) a callback gauge evaluated at snapshot.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. The bounds of an existing histogram are kept.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// BucketCount is one non-empty histogram bucket in a snapshot. Le is
// the bucket's inclusive upper bound; Le == -1 marks the overflow
// bucket (observations above the last bound).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the point-in-time state of one histogram. The
// percentiles are upper-bound estimates: the bound of the bucket where
// the cumulative count crosses the quantile.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	P50     int64         `json:"p50"`
	P95     int64         `json:"p95"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is the point-in-time state of a registry. Map keys marshal
// sorted, so the JSON form is stable for a fixed state.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Counts are read with
// atomic loads; concurrent recording keeps running while the snapshot
// is taken, so cross-metric totals are only approximately consistent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)+len(r.funcs)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, fn := range r.funcs {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapshotHistogram(h)
	}
	return s
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{Sum: h.sum.Load()}
	counts := make([]int64, len(h.bounds)+1)
	for i := range h.bounds {
		counts[i] = h.counts[i].Load()
		hs.Count += counts[i]
	}
	over := h.over.Load()
	counts[len(h.bounds)] = over
	hs.Count += over
	for i, n := range counts {
		if n == 0 {
			continue
		}
		le := int64(-1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: n})
	}
	hs.P50 = quantile(h.bounds, counts, hs.Count, 0.50)
	hs.P95 = quantile(h.bounds, counts, hs.Count, 0.95)
	hs.P99 = quantile(h.bounds, counts, hs.Count, 0.99)
	return hs
}

// quantile returns the upper bound of the bucket where the cumulative
// count reaches q of the total (-1 for the overflow bucket or an empty
// histogram).
func quantile(bounds, counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return -1
	}
	target := int64(q * float64(total))
	if float64(target) < q*float64(total) {
		target++ // rank is the ceiling: the observation at or above the quantile
	}
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range counts {
		cum += n
		if cum >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			return -1
		}
	}
	return -1
}
