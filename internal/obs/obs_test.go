package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 50, 500, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if snap.Sum != 1+5+10+50+500+5000 {
		t.Fatalf("sum = %d", snap.Sum)
	}
	// Buckets: le=10 holds 3 (1,5,10), le=100 holds 1 (50),
	// le=1000 holds 1 (500), overflow (le=-1) holds 1 (5000).
	want := []BucketCount{{10, 3}, {100, 1}, {1000, 1}, {-1, 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, snap.Buckets[i], b)
		}
	}
	if snap.P50 != 10 {
		t.Errorf("p50 = %d, want 10", snap.P50)
	}
	if snap.P99 != -1 {
		t.Errorf("p99 = %d, want -1 (overflow)", snap.P99)
	}
}

func TestRegistryFuncGauge(t *testing.T) {
	r := NewRegistry()
	v := int64(41)
	r.Func("f", func() int64 { return v })
	v++
	if got := r.Snapshot().Counters["f"]; got != 42 {
		t.Fatalf("func gauge = %d, want 42", got)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("z").Set(9)
	first, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	second, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(first, second) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", first, second)
	}
	if !bytes.Contains(first, []byte(`"a":2`)) {
		t.Fatalf("snapshot JSON missing counter: %s", first)
	}
}

func TestTracerSpanLifecycle(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Begin(7, 1, 3, false)
	sp.MarkDispatched()
	sp.MarkSeat(0)
	sp.MarkSeat(2)
	sp.MarkCollated("", false)
	sp.Finish()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %d spans, want 1", len(recent))
	}
	got := recent[0]
	if got.Epoch != 7 || got.Op != 1 || got.Batch != 3 || !got.Done {
		t.Fatalf("span = %+v", got)
	}
	if len(got.Seats) != 2 || got.Seats[0].Seat != 0 || got.Seats[1].Seat != 2 {
		t.Fatalf("seats = %+v", got.Seats)
	}
	if got.ReplyNS < got.CollateNS || got.CollateNS < got.DispatchNS {
		t.Fatalf("stage offsets out of order: %+v", got)
	}
	// The JSON form is what /trace/recent serves.
	line, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanSnapshot
	if err := json.Unmarshal(line, &back); err != nil || back.Epoch != 7 || len(back.Seats) != 2 {
		t.Fatalf("span JSON round trip: %+v %v (%s)", back, err, line)
	}
}

func TestTracerRingRecycles(t *testing.T) {
	tr := NewTracer(2)
	for epoch := uint64(0); epoch < 5; epoch++ {
		sp := tr.Begin(epoch, 0, 1, false)
		sp.MarkCollated("", false)
		sp.Finish()
	}
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("recent = %d spans, want 2", len(recent))
	}
	if recent[0].Epoch != 3 || recent[1].Epoch != 4 {
		t.Fatalf("retained epochs = %d, %d; want 3, 4", recent[0].Epoch, recent[1].Epoch)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(1, 0, 1, false)
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	sp.MarkDispatched()
	sp.MarkSeat(0)
	sp.MarkCollated("x", true)
	sp.Finish()
	if tr.Recent() != nil {
		t.Fatal("nil tracer Recent must be nil")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", SizeBuckets)
	tr := NewTracer(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i % 70))
				sp := tr.Begin(uint64(i), 0, 1, false)
				sp.MarkSeat(0)
				sp.Finish()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			r.Snapshot()
			tr.Recent()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestHotPathAllocations is the non-perturbation gate: recording on the
// query path must not allocate.
func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets)
	tr := NewTracer(8)
	// Warm the ring so every span slot owns a seat slice with capacity.
	for i := 0; i < 16; i++ {
		sp := tr.Begin(uint64(i), 0, 1, false)
		sp.MarkDispatched()
		sp.MarkSeat(0)
		sp.MarkSeat(1)
		sp.MarkCollated("", false)
		sp.Finish()
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		h.Observe(12345)
		h.ObserveSince(StartTimer())
	}); n != 0 {
		t.Fatalf("metric recording allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sp := tr.Begin(9, 1, 1, false)
		sp.MarkDispatched()
		sp.MarkSeat(0)
		sp.MarkSeat(1)
		sp.MarkCollated("", false)
		sp.Finish()
	}); n != 0 {
		t.Fatalf("span recording allocates %.1f/op, want 0", n)
	}
}

func TestAdminEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("frontend_queries_total").Add(3)
	tr := NewTracer(4)
	sp := tr.Begin(1, 0, 1, false)
	sp.Finish()
	healthy := false
	adm, err := ServeAdmin("127.0.0.1:0", AdminOptions{
		Metrics: r,
		Trace:   tr,
		Health: func() Health {
			if healthy {
				return Health{OK: true, Seats: []SeatHealth{{ID: 0, Present: true, Gen: 1}}}
			}
			return Health{OK: false, Detail: "degraded", Seats: []SeatHealth{{ID: 0, Cause: "connection lost"}}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	base := "http://" + adm.Addr()

	get := func(path string, wantCode int) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d (%s)", path, resp.StatusCode, wantCode, body)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics", 200), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["frontend_queries_total"] != 3 {
		t.Fatalf("metrics snapshot = %+v", snap)
	}

	var h Health
	if err := json.Unmarshal(get("/healthz", 503), &h); err != nil {
		t.Fatal(err)
	}
	if h.OK || h.Seats[0].Cause != "connection lost" {
		t.Fatalf("health = %+v", h)
	}
	healthy = true
	get("/healthz", 200)

	var spans []SpanSnapshot
	if err := json.Unmarshal(get("/trace/recent", 200), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Epoch != 1 {
		t.Fatalf("trace/recent = %+v", spans)
	}

	if body := get("/debug/pprof/", 200); !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %s", body)
	}
}

func TestStopwatchZeroValueRecordsNothing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", LatencyBuckets)
	h.ObserveSince(Stopwatch{})
	if got := r.Snapshot().Histograms["h"].Count; got != 0 {
		t.Fatalf("zero stopwatch recorded %d observations", got)
	}
	sw := StartTimer()
	time.Sleep(time.Millisecond)
	h.ObserveSince(sw)
	snap := r.Snapshot().Histograms["h"]
	if snap.Count != 1 || snap.Sum < int64(time.Millisecond) {
		t.Fatalf("stopwatch observation = %+v", snap)
	}
}
