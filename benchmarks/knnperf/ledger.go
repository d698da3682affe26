package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"distknn/internal/obs"
	"distknn/internal/wire"
)

// reading is every counter the ledger differences, read at one instant.
type reading struct {
	at                     time.Time
	frontend, node, client obs.Snapshot
	cpu                    time.Duration // process CPU, user and system
	peakRSS                float64       // MiB
	mem                    runtime.MemStats
	writerGets, writerNews int64
	frameGets, frameNews   int64
}

func read(h handles) (reading, error) {
	r := reading{at: time.Now(), frontend: h.frontend.Snapshot(), node: h.node.Snapshot(), client: h.client.Snapshot()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return r, fmt.Errorf("getrusage: %w", err)
	}
	r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	r.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	runtime.ReadMemStats(&r.mem)
	r.writerGets, r.writerNews, r.frameGets, r.frameNews = wire.PoolStats()
	return r, nil
}

// ledgerWindow is one traced window, bracketed by two readings.
type ledgerWindow struct{ before, after reading }

// delta is the change of the counters over the traced windows. Every traced
// round has a cluster and registries of its own, and the bare rounds in
// between move the process-wide counters too, which is why the change is
// summed window by window and not read end to end.
type delta []ledgerWindow

func (d delta) sum(f func(reading) float64) float64 {
	var total float64
	for _, w := range d {
		total += f(w.after) - f(w.before)
	}
	return total
}

func (d delta) frontend(name string) float64 {
	return d.sum(func(r reading) float64 { return float64(r.frontend.Counters[name]) })
}
func (d delta) node(name string) float64 {
	return d.sum(func(r reading) float64 { return float64(r.node.Counters[name]) })
}
func (d delta) client(name string) float64 {
	return d.sum(func(r reading) float64 { return float64(r.client.Counters[name]) })
}

// histMean is the mean of the observations a frontend histogram took inside
// the windows; sums and counts are exact where the bucketed percentiles are
// not, so the ledger uses means wherever it reads a histogram.
func (d delta) histMean(name string) float64 {
	return ratio(
		d.sum(func(r reading) float64 { return float64(r.frontend.Histograms[name].Sum) }),
		d.sum(func(r reading) float64 { return float64(r.frontend.Histograms[name].Count) }))
}

// inside reports whether t falls in one of the traced windows. The
// frontend's counters move when a query finishes, so spans and calls are
// placed by their end: that way all three count the same queries.
func (d delta) inside(t time.Time) bool {
	for _, w := range d {
		if !t.Before(w.before.at) && t.Before(w.after.at) {
			return true
		}
	}
	return false
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stages splits the epoch spans of the traced window into the durations of
// the scheduler's stages, in microseconds.
type stages struct {
	dispatch, firstSeat, straggler, collate, reply []float64
	mesh                                           []float64 // dispatch to collation of mesh epochs
	inEpochNS                                      float64   // sum of reply offset x batch: query time spent inside epochs
}

func spanEnd(sp obs.SpanSnapshot) time.Time { return sp.Start.Add(time.Duration(sp.ReplyNS)) }

func splitSpans(spans []obs.SpanSnapshot, d delta) stages {
	var st stages
	for _, sp := range spans {
		if !sp.Done || sp.Err != "" || !d.inside(spanEnd(sp)) || len(sp.Seats) == 0 {
			continue
		}
		first, last := int64(math.MaxInt64), int64(0)
		for _, seat := range sp.Seats {
			first, last = min(first, seat.OffsetNS), max(last, seat.OffsetNS)
		}
		us := func(ns int64) float64 { return float64(max(ns, 0)) / 1e3 }
		st.dispatch = append(st.dispatch, us(sp.DispatchNS))
		st.firstSeat = append(st.firstSeat, us(first-sp.DispatchNS))
		st.straggler = append(st.straggler, us(last-first))
		st.collate = append(st.collate, us(sp.CollateNS-last))
		st.reply = append(st.reply, us(sp.ReplyNS-sp.CollateNS))
		if !sp.Direct {
			st.mesh = append(st.mesh, us(sp.CollateNS-sp.DispatchNS))
		}
		st.inEpochNS += float64(sp.ReplyNS) * float64(sp.Batch)
	}
	return st
}

// layers is the traced pass. It runs in rounds like the end-to-end pass, a
// cluster of its own each, but every other cluster has registries and a
// tracer attached, and the ledger is read around its window. The bare rounds
// in between give the cost of tracing: both sides sample the same stretch
// of time, and each cluster is the only one alive, because a cluster brought
// up beside another is up to a tenth slower, whichever of the two is traced.
// Then come the layer probes and the simulator. It reports every per-layer
// metric.
func (b *bench[P]) layers(cfg config) (result, error) {
	s := &b.spec
	res := result{vals: values{}}
	v := res.vals
	goroutines := runtime.NumGoroutine()
	window := cfg.seconds / time.Duration(cfg.rounds)

	var (
		plain, traced lap
		d             delta
		spans         []obs.SpanSnapshot
		counted       []float64 // traced latencies of the calls the counters saw, ms
	)
	for r := 0; r < cfg.rounds; r++ {
		// bare, traced, traced, bare: neither side is always the later one.
		observe := r%4 == 1 || r%4 == 2
		side, h := &plain, handles{}
		if observe {
			side, h = &traced, newHandles()
		}
		c, err := s.bringUp(cfg.seed, h)
		if err != nil {
			return res, err
		}
		if r > 1 {
			c.keep = keepFew
		}
		var w ledgerWindow
		var readErr error
		var mark func()
		if observe {
			mark = func() { w.before, readErr = read(h) }
		}
		t := s.drive(c, cfg.warm, window, mark)
		if observe {
			if readErr == nil {
				w.after, readErr = read(h)
			}
			spans = append(spans, h.tracer.Recent()...)
		}
		if err := c.close(); err != nil {
			return res, fmt.Errorf("%s: close: %w", s.name, err)
		}
		if readErr != nil {
			return res, readErr
		}
		side.add(t, cfg.warm, window)
		if observe {
			d = append(d, w)
			for _, sm := range t.samples {
				if sm.ok && d.inside(t.start.Add(time.Duration(sm.doneNS))) {
					counted = append(counted, float64(sm.latNS)/1e6)
				}
			}
			addCalls(cfg.traces, s, t, d)
		}
	}
	res.phase(cfg, s.name, "plain", plain.calls, plain.failed, plain.errs)
	res.phase(cfg, s.name, "traced", traced.calls, traced.failed, traced.errs)
	plainPool, tracedPool := plain.pool(), traced.pool()
	// The frontend's latency histogram takes one observation per answered
	// query: its count is the number of queries the windows answered.
	queries := d.sum(func(r reading) float64 { return float64(r.frontend.Histograms["frontend_query_latency_ns"].Count) })
	if len(plainPool) == 0 || len(tracedPool) == 0 || queries == 0 {
		return res, fmt.Errorf("%s: no query completed inside the measuring windows", s.name)
	}
	perQuery := func(x float64) float64 { return x / queries }
	st := splitSpans(spans, d)

	// client
	clientMeanUS := mean(counted) * 1e3
	frontendMeanUS := d.histMean("frontend_query_latency_ns") / 1e3
	v["client.latency_p99_ms"] = quantile(tracedPool, 0.99)
	v["client.overhead_us_mean"] = clientMeanUS - frontendMeanUS
	v["client.retries_per_query"] = ratio(d.client("client_retries_total"), d.client("client_queries_total"))
	v["client.timeouts_per_query"] = ratio(d.client("client_timeouts_total"), d.client("client_queries_total"))

	// scheduler
	v["scheduler.admit_wait_us_mean"] = frontendMeanUS - perQuery(st.inEpochNS)/1e3
	v["scheduler.dispatch_us_p50"] = median(st.dispatch)
	v["scheduler.first_seat_us_p50"] = median(st.firstSeat)
	v["scheduler.straggler_us_p50"] = median(st.straggler)
	v["scheduler.collate_us_p50"] = median(st.collate)
	v["scheduler.reply_us_p50"] = median(st.reply)
	// Epochs are counted when they are admitted, so they are set against the
	// queries that arrived in the windows, not the ones answered in them.
	epochs := d.frontend("frontend_epochs_admitted_total")
	v["scheduler.epochs_per_query"] = ratio(epochs, d.frontend("frontend_queries_total"))
	v["scheduler.window_occupancy_mean"] = d.histMean("frontend_window_occupancy")
	v["scheduler.coalesced_batch_mean"] = d.histMean("frontend_coalesced_batch_size")
	v["scheduler.linger_us_mean"] = d.histMean("frontend_bucket_linger_ns") / 1e3

	// mesh
	rounds := d.frontend("frontend_mesh_rounds_total")
	v["mesh.rounds_per_query"] = perQuery(rounds)
	v["mesh.messages_per_query"] = perQuery(d.frontend("frontend_mesh_messages_total"))
	v["mesh.bytes_per_query"] = perQuery(d.frontend("frontend_mesh_bytes_total"))
	v["mesh.us_per_round"] = ratio(median(st.mesh), ratio(rounds, float64(len(st.mesh))))
	v["node.ctrl_bytes_in_per_query"] = perQuery(d.node("node_ctrl_bytes_in_total"))
	v["node.ctrl_bytes_out_per_query"] = perQuery(d.node("node_ctrl_bytes_out_total"))
	v["node.epoch_errors"] = d.node("node_epoch_errors_total")

	// core, from the QueryStats of every successful traced reply
	replies := float64(traced.calls - traced.failed)
	v["core.iterations_per_query"] = ratio(traced.iterations, replies)
	v["core.survivors_per_query"] = ratio(traced.survivors, replies)
	v["core.fallback_share"] = ratio(traced.fellBack, replies)

	// prune
	contacts := d.frontend("frontend_prune_contacts_total")
	v["prune.contacts_per_query"] = perQuery(contacts)
	v["prune.waves_per_query"] = perQuery(d.frontend("frontend_prune_waves_total"))
	v["prune.shards_skipped_per_query"] = perQuery(d.frontend("frontend_prune_shards_skipped_total"))
	v["prune.contact_ratio"] = perQuery(contacts) / nodes

	// wire pools, process-wide
	v["wire.writer_pool_miss_share"] = ratio(
		d.sum(func(r reading) float64 { return float64(r.writerNews) }),
		d.sum(func(r reading) float64 { return float64(r.writerGets) }))
	v["wire.frame_pool_miss_share"] = ratio(
		d.sum(func(r reading) float64 { return float64(r.frameNews) }),
		d.sum(func(r reading) float64 { return float64(r.frameGets) }))

	// runtime: the whole cluster and its callers are this process
	v["runtime.cpu_ms_per_query"] = perQuery(d.sum(func(r reading) float64 { return float64(r.cpu) / 1e6 }))
	v["runtime.allocs_per_query"] = perQuery(d.sum(func(r reading) float64 { return float64(r.mem.Mallocs) }))
	v["runtime.alloc_kb_per_query"] = perQuery(d.sum(func(r reading) float64 { return float64(r.mem.TotalAlloc) / 1024 }))
	v["runtime.gc_cycles"] = d.sum(func(r reading) float64 { return float64(r.mem.NumGC) })
	v["runtime.gc_pause_ms"] = d.sum(func(r reading) float64 { return float64(r.mem.PauseTotalNs) / 1e6 })
	v["runtime.peak_rss_mb"] = d[len(d)-1].after.peakRSS
	v["runtime.goroutines_leaked"] = float64(leaked(goroutines))

	// obs and the benchmark itself
	rates := sortedCopy(plain.rates())
	plainQPS := median(rates)
	v["obs.trace_overhead_share"] = 1 - ratio(median(traced.rates()), plainQPS)
	v["bench.round_spread_qps"] = ratio(rates[len(rates)-1]-rates[0], plainQPS)
	v["bench.samples"] = float64(len(plainPool))

	// Only now the benchmark's own large allocations: probe inputs, the
	// oracle's copy of the data and the simulator. Earlier they would have
	// counted in the resident set and the allocation rates above.
	if err := probe(cfg, v); err != nil {
		return res, err
	}
	o, err := newOracle(s)
	if err != nil {
		return res, err
	}
	settle(&res, cfg, s, o, append(plain.answers, traced.answers...))
	simMS, err := s.simulate(cfg, o)
	if err != nil {
		return res, err
	}
	v["core.sim_ms_per_query"] = simMS
	v["mesh.transport_share"] = 1 - ratio(simMS, quantile(plainPool, 0.50))

	cfg.traces.addEpochs(spans, d)
	return res, nil
}

// leaked waits for the goroutines of closed clusters to exit and returns
// how many more remain than before the first bring-up.
func leaked(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-before, 0)
}

// simulate answers the head of the workload's query stream on the
// in-process simulator over the same points — the same protocol with no
// sockets — and returns the median time of a query in milliseconds.
func (s *spec[P]) simulate(cfg config, o *oracle[P]) (float64, error) {
	pts, labels := o.union()
	cl, err := s.sim(pts, labels, cfg.seed)
	if err != nil {
		return 0, fmt.Errorf("%s: simulator: %w", s.name, err)
	}
	defer cl.Close()
	var ms []float64
	budget := min(cfg.seconds/8, time.Second)
	for i, start := uint64(0), time.Now(); i < 512 && (i < 8 || time.Since(start) < budget); i++ {
		q := s.query(i)
		t0 := time.Now()
		if _, _, err := cl.KNN(q, s.l); err != nil {
			return 0, fmt.Errorf("%s: simulator query %d: %w", s.name, i, err)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	sort.Float64s(ms)
	return quantile(ms, 0.5), nil
}
