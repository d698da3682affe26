package tcp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"distknn/internal/keys"
	"distknn/internal/metricindex"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// scalarGeometry is the |a−b| pruning geometry over scalar wire points.
var scalarGeometry = &metricindex.WirePruner[points.Scalar]{
	Codec:  wire.ScalarCodec,
	Metric: points.ScalarMetric,
	Key:    func(d uint64) float64 { return float64(d) },
}

// stubNode is a serving node reduced to its control connection: it registers,
// reports ready with a metric summary, records every control frame it is
// sent, and answers dispatches by brute force over three points around its
// center — on a dispatch with bounds, only the keys below each point's
// bound. A non-nil mangle turns the stub rogue: it replaces every answer
// with mangle(id, v, bound, honest).
type stubNode struct {
	mu     sync.Mutex
	id     int
	frames [][]byte
	mangle mangler
}

// mangler rewrites stub seat id's honest direct answer for point v under
// bound.
type mangler func(id int, v uint64, bound keys.Key, honest []points.Item) []points.Item

var stubCenters = []uint64{100, 1000}

func stubTopL(id int, q uint64, l int) []points.Item {
	c := stubCenters[id]
	var items []points.Item
	for _, x := range []uint64{c - 5, c, c + 5} {
		d := q - x
		if x > q {
			d = x - q
		}
		items = append(items, points.Item{Key: keys.Key{Dist: d, ID: x}, Label: float64(x)})
	}
	points.SortItems(items)
	if len(items) > l {
		items = items[:l]
	}
	return items
}

func (n *stubNode) serve(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, []byte{byte(wire.KindRegister)}); err != nil {
		return err
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	r := wire.NewReader(payload)
	if kind := r.Kind(); kind != wire.KindAssign {
		return fmt.Errorf("stub: expected assign, got kind %d", kind)
	}
	a, err := wire.DecodeAssign(r)
	if err != nil {
		return err
	}
	id := a.ID
	n.mu.Lock()
	n.id = id
	n.mu.Unlock()
	var ready wire.Writer
	wire.AppendReady(&ready, wire.Ready{ShardLen: 3, PointTag: wire.PointScalar, Summary: wire.ShardSummary{
		Has: true, Radius: 30, Center: wire.EncodeScalarPoint(stubCenters[id]),
	}})
	if err := wire.WriteFrame(conn, ready.Bytes()); err != nil {
		return err
	}
	for {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		n.mu.Lock()
		n.frames = append(n.frames, payload)
		n.mu.Unlock()
		r := wire.NewReader(payload)
		switch kind := r.Kind(); kind {
		case wire.KindShutdown:
			return nil
		case wire.KindDispatchDirect:
			epoch := r.Varint()
			q, err := wire.DecodeQuery(r)
			if err != nil {
				return err
			}
			bounds, err := wire.DecodeBounds(r, len(q.Points))
			if err != nil {
				return err
			}
			nr := wire.NodeResult{Epoch: epoch, Node: id, Queries: make([]wire.NodeQueryResult, len(q.Points))}
			for qi, p := range q.Points {
				v, err := wire.DecodeScalarPoint(p)
				if err != nil {
					return err
				}
				bound := keys.MaxKey
				if bounds != nil {
					bound = bounds[qi]
				}
				w := stubTopL(id, v, q.L)
				for len(w) > 0 && !w[len(w)-1].Key.Less(bound) {
					w = w[:len(w)-1]
				}
				if n.mangle != nil {
					w = n.mangle(id, v, bound, w)
				}
				nr.Queries[qi].Winners = w
			}
			var res wire.Writer
			wire.AppendNodeResult(&res, nr)
			if err := wire.WriteFrame(conn, res.Bytes()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("stub: unexpected control kind %d", kind)
		}
	}
}

// TestPrunedSubBatchWaveOnTheWire pins the one dispatch shape on the wire: a
// pruned batch whose second wave reaches a seat with a strict sub-batch
// arrives there as a plain direct dispatch (kind 0f) carrying exactly the
// sub-batch's points in batch order, each with its probe's ℓ-th key as its
// bound — no index list, no third kind — and the frontend's own index map
// still files the answers under the original batch positions. The probe
// wave carries no bounds.
func TestPrunedSubBatchWaveOnTheWire(t *testing.T) {
	const l = 2
	fe, stubs, serveDone, exits := startStubs(t, FrontendOptions{Pruner: scalarGeometry}, nil)
	client, err := DialFrontendOptions(fe.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Wave 1 probes each point's nearest seat: 100 → seat 0; 552, 1000 and
	// 553 → seat 1. The two middle points' bounds still reach seat 0's ball,
	// so wave 2 sends seat 0 the strict sub-batch {552, 553} — batch
	// positions 1 and 3 — bounded by their probes' 2nd keys, (448, 1000)
	// and (447, 1000): seat 0 returns (447, 105) for 552 and nothing for
	// 553.
	batch := []uint64{100, 552, 1000, 553}
	rep, err := client.Do(scalarQuery(wire.OpKNN, l, batch...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 2 || rep.Messages != 6 {
		t.Fatalf("pruned cost = %d waves, %d contacts; want 2, 6", rep.Rounds, rep.Messages)
	}
	if len(rep.Results) != len(batch) {
		t.Fatalf("%d results for %d points", len(rep.Results), len(batch))
	}
	for pi, q := range batch {
		want := append(stubTopL(0, q, l), stubTopL(1, q, l)...)
		points.SortItems(want)
		want = want[:l]
		got := rep.Results[pi]
		if len(got.Items) != l || got.Items[0] != want[0] || got.Items[1] != want[1] || got.Boundary != want[l-1].Key {
			t.Fatalf("point %d (%d): got %v boundary %v, want %v", pi, q, got.Items, got.Boundary, want)
		}
	}

	client.Close()
	fe.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("frontend: %v", err)
	}
	for range stubs {
		if err := <-exits; err != nil && err != io.EOF {
			t.Fatalf("stub node: %v", err)
		}
	}
	want := [][][]byte{
		{direct(1, l, nil, 100), direct(2, l, []keys.Key{{Dist: 448, ID: 1000}, {Dist: 447, ID: 1000}}, 552, 553)},
		{direct(1, l, nil, 552, 1000, 553)},
	}
	checkDispatches(t, stubs, want)
}

// direct is the dispatch frame payload of epoch for a KNN query of the
// scalar points vs at ℓ = l under bounds.
func direct(epoch uint64, l int, bounds []keys.Key, vs ...uint64) []byte {
	var w wire.Writer
	wire.AppendDispatchDirect(&w, epoch, scalarQuery(wire.OpKNN, l, vs...), bounds)
	return w.Bytes()
}

// checkDispatches compares, per stub seat, the dispatch frames the seat
// received with want[seat], byte for byte.
func checkDispatches(t *testing.T, stubs []*stubNode, want [][][]byte) {
	t.Helper()
	for _, n := range stubs {
		var dispatches [][]byte
		for _, frame := range n.frames {
			if wire.Kind(frame[0]) != wire.KindShutdown {
				dispatches = append(dispatches, frame)
			}
		}
		if len(dispatches) != len(want[n.id]) {
			t.Fatalf("seat %d received %d dispatch frames, want %d", n.id, len(dispatches), len(want[n.id]))
		}
		for i, frame := range dispatches {
			if !bytes.Equal(frame, want[n.id][i]) {
				t.Fatalf("seat %d dispatch %d = % x, want % x", n.id, i, frame, want[n.id][i])
			}
		}
	}
}

// startStubs serves a two-seat frontend with opts on two stub nodes, and
// returns the frontend, the stubs (in start order) and the channels its
// Serve and the stubs' serve loops report their exits on. Both stubs carry
// mangle (nil for honest stubs).
func startStubs(t *testing.T, opts FrontendOptions, mangle mangler) (*Frontend, []*stubNode, chan error, chan error) {
	t.Helper()
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	stubs := []*stubNode{{mangle: mangle}, {mangle: mangle}}
	exits := make(chan error, len(stubs))
	for _, n := range stubs {
		go func(n *stubNode) { exits <- n.serve(fe.Addr()) }(n)
	}
	return fe, stubs, serveDone, exits
}

// TestFullScatterWaveOnTheWire pins the plan of a frontend without a
// Pruner: every query is one wave that sends every seat the whole batch,
// unbounded, in one shared frame — and the frontend selects the answer from
// the seats' local top-ℓ lists. Its cost is the wave's: 1 round, one contact
// per point per seat, 0 bytes.
func TestFullScatterWaveOnTheWire(t *testing.T) {
	const l = 2
	fe, stubs, serveDone, exits := startStubs(t, FrontendOptions{}, nil)
	client, err := DialFrontendOptions(fe.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []uint64{100, 552}
	rep, err := client.Do(scalarQuery(wire.OpRegress, l, batch...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 1 || rep.Messages != 4 || rep.Leader != 0 {
		t.Fatalf("full-scatter cost = %d rounds, %d contacts, leader %d; want 1, 4, 0", rep.Rounds, rep.Messages, rep.Leader)
	}
	for pi, q := range batch {
		want := append(stubTopL(0, q, l), stubTopL(1, q, l)...)
		points.SortItems(want)
		want = want[:l]
		got := rep.Results[pi]
		if mean := (want[0].Label + want[1].Label) / 2; got.Boundary != want[l-1].Key || got.Value != mean {
			t.Fatalf("point %d (%d): boundary %v value %v, want %v and %v", pi, q, got.Boundary, got.Value, want[l-1].Key, mean)
		}
	}
	client.Close()
	fe.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("frontend: %v", err)
	}
	for range stubs {
		if err := <-exits; err != nil && err != io.EOF {
			t.Fatalf("stub node: %v", err)
		}
	}
	var w wire.Writer
	wire.AppendDispatchDirect(&w, 1, scalarQuery(wire.OpRegress, l, batch...), nil)
	checkDispatches(t, stubs, [][][]byte{{w.Bytes()}, {w.Bytes()}})
}

// TestTraceSpanDirectFlag pins the trace span's Direct flag, which splits
// the per-layer trace rows: a full-scatter wave's span reads false, and a
// pruned query's probe and gather spans read true. Query 552 at ℓ = 2 is
// one full-scatter wave without a Pruner, and with one probes seat 1 and
// gathers from seat 0.
func TestTraceSpanDirectFlag(t *testing.T) {
	const l, v = 2, 552
	cases := []struct {
		name   string
		pruner Pruner
		want   []bool // per wave, in order
	}{
		{"full scatter", nil, []bool{false}},
		{"pruned", scalarGeometry, []bool{true, true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer(0)
			fe, _, serveDone, exits := startStubs(t, FrontendOptions{Pruner: tc.pruner, Trace: tr}, nil)
			client, err := DialFrontendOptions(fe.Addr(), ClientOptions{RetryWait: -1})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := client.Do(scalarQuery(wire.OpKNN, l, v))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rounds != len(tc.want) {
				t.Fatalf("%d waves, want %d", rep.Rounds, len(tc.want))
			}
			spans := tr.Recent()
			if len(spans) != len(tc.want) {
				t.Fatalf("%d spans, want %d", len(spans), len(tc.want))
			}
			for i, sp := range spans {
				if !sp.Done || sp.Direct != tc.want[i] {
					t.Fatalf("wave %d span: done %v, direct %v; want done, direct %v", i+1, sp.Done, sp.Direct, tc.want[i])
				}
			}
			client.Close()
			fe.Close()
			if err := <-serveDone; err != nil {
				t.Fatalf("frontend: %v", err)
			}
			for range 2 {
				<-exits
			}
		})
	}
}

// TestRogueResultIsMalformed pins what the fold may assume of a winner
// list: per point at most ℓ keys, strictly ascending — mergeTop merges
// them as sorted runs — and, on a gather wave, every key strictly below the
// point's bound. A node that breaks any of these is evicted and the query
// fails, instead of answering from a list the merge and the fold would
// misread. Query 552 at ℓ = 2 probes seat 1 ((443, 995), (448, 1000)) and
// gathers from seat 0 under the bound (448, 1000).
func TestRogueResultIsMalformed(t *testing.T) {
	const l, v = 2, 552
	cases := []struct {
		name  string
		rogue int
		bad   mangler
	}{
		{"descending", 1, func(_ int, _ uint64, _ keys.Key, w []points.Item) []points.Item {
			return []points.Item{w[1], w[0]}
		}},
		{"repeated key", 1, func(_ int, _ uint64, _ keys.Key, w []points.Item) []points.Item {
			return []points.Item{w[0], w[0]}
		}},
		{"more than l", 1, func(id int, v uint64, _ keys.Key, _ []points.Item) []points.Item {
			return stubTopL(id, v, l+1)
		}},
		{"at the bound", 0, func(_ int, _ uint64, bound keys.Key, _ []points.Item) []points.Item {
			return []points.Item{{Key: bound}}
		}},
		{"above the bound", 0, func(id int, v uint64, _ keys.Key, _ []points.Item) []points.Item {
			return stubTopL(id, v, l)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mangle := func(id int, v uint64, bound keys.Key, honest []points.Item) []points.Item {
				if id != tc.rogue {
					return honest
				}
				return tc.bad(id, v, bound, honest)
			}
			fe, _, serveDone, exits := startStubs(t, FrontendOptions{Pruner: scalarGeometry}, mangle)
			client, err := DialFrontendOptions(fe.Addr(), ClientOptions{RetryWait: -1})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := client.Do(scalarQuery(wire.OpKNN, l, v))
			if err == nil || !strings.Contains(err.Error(), "malformed result") {
				t.Fatalf("rogue seat %d: reply %+v, error %v; want a malformed-result failure", tc.rogue, rep.Results, err)
			}
			fe.mu.Lock()
			evicted := !fe.slots[tc.rogue].present
			fe.mu.Unlock()
			if !evicted {
				t.Fatalf("rogue seat %d is still seated", tc.rogue)
			}
			client.Close()
			fe.Close()
			if err := <-serveDone; err != nil {
				t.Fatalf("frontend: %v", err)
			}
			for range 2 {
				<-exits
			}
		})
	}
}

// TestRetiredClientKindIsRejected pins what became of the untagged client
// query (kind 08): input from outside the program is still rejected — the
// connection closes without a reply — it is just no longer served, and it
// consumes no epoch ordinal.
func TestRetiredClientKindIsRejected(t *testing.T) {
	lc, client := startEchoCluster(t, 2, 3)
	conn, err := net.Dial("tcp", lc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The retired frame: kind 08, then a well-formed query body.
	var q wire.Writer
	wire.AppendQueryTagged(&q, 0, scalarQuery(wire.OpKNN, 1, 7))
	frame := append([]byte{8}, q.Bytes()[2:]...)
	if err := wire.WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if payload, err := wire.ReadFrame(conn); err != io.EOF {
		t.Fatalf("retired kind 08 got payload % x, err %v; want the connection closed without a reply", payload, err)
	}
	epoch := func() uint64 {
		lc.fe.mu.Lock()
		defer lc.fe.mu.Unlock()
		return lc.fe.epoch
	}
	if got := epoch(); got != 0 {
		t.Fatalf("retired kind 08 consumed an epoch ordinal: epoch = %d", got)
	}
	// The cluster is unharmed, and the next real query takes ordinal 1.
	if _, err := client.Do(scalarQuery(wire.OpKNN, 1, 7)); err != nil {
		t.Fatal(err)
	}
	if got := epoch(); got != 1 {
		t.Fatalf("first served query took ordinal %d, want 1", got)
	}
}
