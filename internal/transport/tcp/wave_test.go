package tcp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"distknn/internal/keys"
	"distknn/internal/metricindex"
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
// sent, and answers direct dispatches by brute force over three points
// around its center. It builds no mesh — a pruned frontend never needs one.
type stubNode struct {
	mu     sync.Mutex
	id     int
	frames [][]byte
}

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
	var reg wire.Writer
	reg.Kind(wire.KindRegister)
	reg.String("stub:0")
	if err := wire.WriteFrame(conn, reg.Bytes()); err != nil {
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
	r.U8()
	id := int(r.Varint())
	n.mu.Lock()
	n.id = id
	n.mu.Unlock()
	var ready wire.Writer
	wire.AppendReady(&ready, wire.Ready{Node: id, Leader: 0, ShardLen: 3, PointTag: wire.PointScalar})
	if err := wire.WriteFrame(conn, ready.Bytes()); err != nil {
		return err
	}
	sum := wire.ShardSummary{Node: id, Has: true, Radius: 30, Center: wire.EncodeScalarPoint(stubCenters[id])}
	if err := wire.WriteFrame(conn, wire.EncodeShardSummary(sum)); err != nil {
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
			nr := wire.NodeResult{Epoch: epoch, Node: id, Queries: make([]wire.NodeQueryResult, len(q.Points))}
			for qi, p := range q.Points {
				v, err := wire.DecodeScalarPoint(p)
				if err != nil {
					return err
				}
				nr.Queries[qi].Winners = stubTopL(id, v, q.L)
			}
			if err := wire.WriteFrame(conn, wire.EncodeNodeResult(nr)); err != nil {
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
// sub-batch's points in batch order — no index list, no third kind — and
// the frontend's own index map still files the answers under the original
// batch positions.
func TestPrunedSubBatchWaveOnTheWire(t *testing.T) {
	const l = 2
	fe, err := NewFrontendOptions("127.0.0.1:0", 2, 1, FrontendOptions{Pruner: scalarGeometry})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	stubs := []*stubNode{{}, {}}
	exits := make(chan error, len(stubs))
	for _, n := range stubs {
		go func(n *stubNode) { exits <- n.serve(fe.Addr()) }(n)
	}
	client, err := DialFrontend(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Wave 1 probes each point's nearest seat: 100 → seat 0; 552, 1000 and
	// 553 → seat 1. The two middle points' bounds still reach seat 0's ball,
	// so wave 2 sends seat 0 the strict sub-batch {552, 553} — batch
	// positions 1 and 3.
	batch := []uint64{100, 552, 1000, 553}
	rep, err := client.Do(scalarQuery(wire.OpKNN, l, batch...))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 2 || rep.Messages != 6 || rep.Bytes != 0 {
		t.Fatalf("pruned cost = %d waves, %d contacts, %d bytes; want 2, 6, 0", rep.Rounds, rep.Messages, rep.Bytes)
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
	sub := func(vs ...uint64) wire.Query { return scalarQuery(wire.OpKNN, l, vs...) }
	want := [][][]byte{
		{wire.EncodeDispatchDirect(1, sub(100)), wire.EncodeDispatchDirect(2, sub(552, 553))},
		{wire.EncodeDispatchDirect(1, sub(552, 1000, 553))},
	}
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
	frame := append([]byte{8}, wire.EncodeQueryTagged(0, scalarQuery(wire.OpKNN, 1, 7))[2:]...)
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
