package distknn_test

import (
	"sync"
	"testing"

	"distknn"
	"distknn/internal/testutil"
)

// TestRemoteObsMetricsMatchQueryStats runs a pruned serving cluster with a
// metrics registry and a tracer attached and demands that the frontend's
// telemetry agrees with what the clients were told: queries counted once,
// the latency histogram filled once per query, prune contacts equal to the
// sum of the clients' QueryStats.Contacts, and one finished trace span per
// epoch. Observation must describe the workload exactly — an over- or
// under-count means instrumentation sits on the wrong code path.
func TestRemoteObsMetricsMatchQueryStats(t *testing.T) {
	const (
		k       = 3
		perNode = 120
		seed    = 909
		queries = 30
		l       = 6
	)
	reg := distknn.NewMetrics()
	tr := distknn.NewTracer(0)
	shards := distknn.AnchorShards(seed, perNode)
	_, rc := testutil.StartCluster(t, distknn.ScalarPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{
			Pruner:  distknn.ScalarPoints().Pruner(),
			Metrics: reg,
			Trace:   tr,
		})

	var wantContacts int64
	for i := 0; i < queries; i++ {
		q := distknn.Scalar(uint64(i) * 1_000_003)
		_, stats, err := rc.KNN(q, l)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if stats.Contacts == 0 {
			t.Fatalf("query %d: pruned cluster reported no contacts", i)
		}
		wantContacts += stats.Contacts
	}

	s := reg.Snapshot()
	if got := s.Counters["frontend_queries_total"]; got != queries {
		t.Errorf("frontend_queries_total = %d, want %d", got, queries)
	}
	if got := s.Counters["frontend_prune_contacts_total"]; got != wantContacts {
		t.Errorf("frontend_prune_contacts_total = %d, want %d (sum of client QueryStats.Contacts)", got, wantContacts)
	}
	if got := s.Counters["frontend_epochs_admitted_total"]; got == 0 {
		t.Error("frontend_epochs_admitted_total = 0, want > 0")
	}
	if got := s.Histograms["frontend_query_latency_ns"].Count; got != queries {
		t.Errorf("frontend_query_latency_ns count = %d, want %d", got, queries)
	}
	if got := s.Histograms["frontend_window_occupancy"].Count; got == 0 {
		t.Error("frontend_window_occupancy count = 0, want > 0")
	}
	if got := s.Counters["frontend_replies_failed_total"]; got != 0 {
		t.Errorf("frontend_replies_failed_total = %d, want 0", got)
	}

	spans := tr.Recent()
	if len(spans) == 0 {
		t.Fatal("tracer recorded no spans")
	}
	for _, sp := range spans {
		if !sp.Done {
			t.Fatalf("span for epoch %d not finished: %+v", sp.Epoch, sp)
		}
		if sp.Err != "" {
			t.Fatalf("span for epoch %d carries error %q", sp.Epoch, sp.Err)
		}
	}
}

// TestRemoteObsFullScatterMetrics pins the full-scatter counters. Each
// frontend cost counter is the Σ of the matching client QueryStats field
// over answered queries — singles and a batch, KNN, Classify and Regress
// alike — with no pruning, so no prune contacts; the scheduler window gauge
// settles back to zero when the cluster is idle; and a loopback cluster's
// nodes record into the NodeOptions.Metrics registry they were given, where
// node_epochs_served_total counts every wave every one of the k nodes
// answered.
func TestRemoteObsFullScatterMetrics(t *testing.T) {
	const (
		k       = 2
		perNode = 80
		seed    = 31
		queries = 12
		l       = 4
	)
	reg, nodeReg := distknn.NewMetrics(), distknn.NewMetrics()
	_, rc := testutil.StartCluster(t, distknn.ScalarPoints(), k, seed,
		distknn.PaperShards(seed, perNode),
		distknn.NodeOptions{Metrics: nodeReg}, distknn.FrontendOptions{Metrics: reg})

	var want distknn.QueryStats
	add := func(st *distknn.QueryStats) {
		want.Rounds += st.Rounds
		want.Messages += st.Messages
		want.Bytes += st.Bytes
	}
	for i := 0; i < queries; i++ {
		q := distknn.Scalar(uint64(i) * 7919)
		var st *distknn.QueryStats
		var err error
		switch i % 3 {
		case 0:
			_, st, err = rc.KNN(q, l)
		case 1:
			_, st, err = rc.Classify(q, l)
		default:
			_, st, err = rc.Regress(q, l)
		}
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		add(st)
	}
	_, st, err := rc.KNNBatch([]distknn.Scalar{1, 2, 3}, l)
	if err != nil {
		t.Fatal(err)
	}
	add(st)
	const answered, waves = queries + 1, queries + 1

	s := reg.Snapshot()
	if got := s.Counters["frontend_queries_total"]; got != answered {
		t.Errorf("frontend_queries_total = %d, want %d", got, answered)
	}
	for name, want := range map[string]int64{
		"frontend_mesh_rounds_total":   int64(want.Rounds),
		"frontend_mesh_messages_total": want.Messages,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (the sum of the clients' QueryStats)", name, got, want)
		}
	}
	if want.Rounds != waves || want.Messages != k*(queries+3) || want.Bytes != 0 {
		t.Errorf("clients saw %d rounds, %d messages, %d bytes; want %d, %d, 0", want.Rounds, want.Messages, want.Bytes, waves, k*(queries+3))
	}
	if got := s.Counters["frontend_epochs_admitted_total"]; got != waves {
		t.Errorf("frontend_epochs_admitted_total = %d, want %d", got, waves)
	}
	if got := s.Counters["frontend_prune_contacts_total"]; got != 0 {
		t.Errorf("frontend_prune_contacts_total = %d, want 0 on full scatter", got)
	}
	if got := s.Gauges["frontend_epochs_inflight"]; got != 0 {
		t.Errorf("frontend_epochs_inflight = %d after the workload drained, want 0", got)
	}
	node := nodeReg.Snapshot().Counters
	if got := node["node_epochs_served_total"]; got != k*waves {
		t.Errorf("node_epochs_served_total = %d, want %d (k nodes × %d waves)", got, k*waves, waves)
	}
	if got := node["node_epoch_errors_total"]; got != 0 {
		t.Errorf("node_epoch_errors_total = %d, want 0", got)
	}
}

// TestQueryStatsConcurrentPrunedBatches issues pruned KNNBatch calls from
// many goroutines at once and verifies that every call gets its own
// QueryStats — never a shared or torn one — by replaying the identical
// batch serially and demanding equal stats. Run under -race in CI, this is
// also the data-race gate for the stats aggregation path.
func TestQueryStatsConcurrentPrunedBatches(t *testing.T) {
	const (
		k       = 3
		perNode = 100
		seed    = 4242
		callers = 8
		batch   = 5
		l       = 5
	)
	shards := distknn.AnchorShards(seed, perNode)
	_, rc := testutil.StartCluster(t, distknn.ScalarPoints(), k, seed, shards,
		distknn.NodeOptions{}, distknn.FrontendOptions{
			Pruner: distknn.ScalarPoints().Pruner(),
		})

	queriesFor := func(caller int) []distknn.Scalar {
		qs := make([]distknn.Scalar, batch)
		for j := range qs {
			qs[j] = distknn.Scalar(uint64(caller)*1_000_000 + uint64(j)*31_337)
		}
		return qs
	}

	stats := make([]*distknn.QueryStats, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, err := rc.KNNBatch(queriesFor(c), l)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			stats[c] = st
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Serial replay: a deterministic cluster answers the same batch with
	// the same cost, so any divergence means the concurrent stats were
	// shared or torn across callers.
	for c := 0; c < callers; c++ {
		_, want, err := rc.KNNBatch(queriesFor(c), l)
		if err != nil {
			t.Fatalf("serial replay %d: %v", c, err)
		}
		got := stats[c]
		if got.Contacts == 0 {
			t.Fatalf("caller %d: pruned batch reported no contacts", c)
		}
		if got.Contacts != want.Contacts || got.Rounds != want.Rounds ||
			got.Messages != want.Messages || got.Bytes != want.Bytes {
			t.Errorf("caller %d stats diverge: concurrent %+v, serial %+v", c, got, want)
		}
	}
}
