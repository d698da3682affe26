package tcp

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"distknn/internal/core"
	"distknn/internal/election"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/points"
	"distknn/internal/xrand"
)

// instanceFor generates machine i's dataset deterministically from (seed, i)
// — the same scheme a multi-process deployment would use.
func instanceFor(seed uint64, id, n int) *points.Set[points.Scalar] {
	rng := xrand.NewStream(seed, uint64(id))
	s := points.GenUniformScalars(rng, n, points.PaperDomain)
	for j := range s.IDs {
		s.IDs[j] = uint64(id)*uint64(n) + uint64(j) + 1
	}
	return s
}

// startMesh brings up a real resident mesh of k nodes and returns them
// indexed by machine id. It is the production bring-up minus the Handler:
// Frontend rendezvous, joinServe, meshAcceptLoop + buildMesh. The mesh stays
// up until the test ends, as a resident one outlives its epochs.
func startMesh(t testing.TB, k int, seed uint64) []*Node {
	t.Helper()
	fe, err := NewFrontendOptions("127.0.0.1:0", k, seed, FrontendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve() }()
	// The fe.Close below releases Serve from its wait for ready reports
	// that never come.
	t.Cleanup(func() {
		if err := <-serveDone; err != nil {
			t.Errorf("frontend: %v", err)
		}
	})

	nodes := make([]*Node, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Error(err)
				return
			}
			t.Cleanup(func() { ln.Close() })
			coord, a, err := joinServe(fe.Addr(), ln, "")
			if err != nil {
				t.Error(err)
				return
			}
			t.Cleanup(func() { coord.Close() })
			node := newNode(a.ID, a.K)
			t.Cleanup(node.closePeers)
			go meshAcceptLoop(node, ln)
			if err := buildMesh(node, a.Addrs); err != nil {
				t.Error(err)
				return
			}
			nodes[a.ID] = node
		}()
	}
	wg.Wait()
	fe.Close()
	if t.Failed() {
		t.FailNow()
	}
	return nodes
}

// onEveryNode runs one epoch on every node of a mesh concurrently and
// returns each node's metrics and error, indexed by machine id.
func onEveryNode(nodes []*Node, epoch func(n *Node) (Metrics, error)) ([]Metrics, []error) {
	metrics := make([]Metrics, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			metrics[i], errs[i] = epoch(n)
		}()
	}
	wg.Wait()
	return metrics, errs
}

// runSetupEpoch runs prog as the setup epoch (ordinal 0, full mesh) of a
// fresh mesh at the setup epoch's derived seed — so a simulator twin seeds
// kmachine.Run with xrand.DeriveSeed(seed, SetupSeedStream).
func runSetupEpoch(t *testing.T, k int, seed uint64, prog kmachine.Program) ([]Metrics, []error) {
	t.Helper()
	return onEveryNode(startMesh(t, k, seed), func(n *Node) (Metrics, error) {
		return n.runEpoch(0, xrand.DeriveSeed(seed, SetupSeedStream), prog)
	})
}

// runStarEpoch runs prog as the one-lane star epoch ordinal (ordinals
// above 0 are query epochs) around hub on every node of a standing mesh,
// as a dispatched query epoch runs.
func runStarEpoch(nodes []*Node, ordinal uint64, hub int, prog kmachine.Program) ([]Metrics, []error) {
	return onEveryNode(nodes, func(n *Node) (Metrics, error) {
		er, err := n.beginEpoch(ordinal, ordinal, hub)
		if err != nil {
			return Metrics{}, err
		}
		err = er.run([]kmachine.Program{prog})
		return er.metrics, err
	})
}

// mustRunSetupEpoch is runSetupEpoch for programs every node must finish.
func mustRunSetupEpoch(t *testing.T, k int, seed uint64, prog kmachine.Program) []Metrics {
	t.Helper()
	metrics, errs := runSetupEpoch(t, k, seed, prog)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("node %d: %v", i, e)
		}
	}
	return metrics
}

func TestPingPongOverTCP(t *testing.T) {
	prog := func(m kmachine.Env) error {
		if m.ID() == 0 {
			m.Send(1, []byte("ping"))
			m.EndRound()
			msgs := m.WaitAny()
			if string(msgs[0].Payload) != "pong" {
				return fmt.Errorf("got %q", msgs[0].Payload)
			}
			return nil
		}
		msgs := m.WaitAny()
		if string(msgs[0].Payload) != "ping" {
			return fmt.Errorf("got %q", msgs[0].Payload)
		}
		m.Send(0, []byte("pong"))
		return nil
	}
	metrics := mustRunSetupEpoch(t, 2, 1, prog)
	if metrics[0].Messages != 1 || metrics[1].Messages != 1 {
		t.Errorf("metrics: %+v", metrics)
	}
}

func TestBroadcastGatherOverTCP(t *testing.T) {
	k := 5
	prog := func(m kmachine.Env) error {
		m.Broadcast([]byte{byte(m.ID())})
		m.EndRound()
		msgs := m.Gather(k - 1)
		seen := make(map[int]bool)
		for _, msg := range msgs {
			if int(msg.Payload[0]) != msg.From {
				return fmt.Errorf("corrupt payload from %d", msg.From)
			}
			seen[msg.From] = true
		}
		if len(seen) != k-1 {
			return fmt.Errorf("saw %d peers", len(seen))
		}
		return nil
	}
	mustRunSetupEpoch(t, k, 2, prog)
}

func TestStaggeredHalts(t *testing.T) {
	// Machines halt at different rounds; later rounds must keep working
	// between the survivors.
	k := 4
	prog := func(m kmachine.Env) error {
		// Machine i spins i*3 rounds, then (if not machine 0) halts;
		// machine 0 keeps talking to machine 3 the whole time.
		switch m.ID() {
		case 0:
			for r := 0; r < 9; r++ {
				m.Send(3, []byte{byte(r)})
				m.EndRound()
			}
			return nil
		case 3:
			got := 0
			for got < 9 {
				got += len(m.WaitAny())
			}
			return nil
		default:
			for r := 0; r < m.ID()*3; r++ {
				m.EndRound()
			}
			return nil
		}
	}
	mustRunSetupEpoch(t, k, 3, prog)
}

func TestErrorPropagatesAcrossCluster(t *testing.T) {
	boom := errors.New("boom")
	prog := func(m kmachine.Env) error {
		if m.ID() == 1 {
			m.EndRound()
			return boom
		}
		for {
			m.EndRound() // spins until aborted by peer 1's error frame
		}
	}
	_, errs := runSetupEpoch(t, 3, 4, prog)
	if !errors.Is(errs[1], boom) {
		t.Errorf("node 1 error = %v", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] == nil || !strings.Contains(errs[i].Error(), "abort") {
			t.Errorf("node %d should abort, got %v", i, errs[i])
		}
	}
}

func TestFullKNNPipelineOverTCP(t *testing.T) {
	// The headline integration: election + Algorithm 2 over real sockets,
	// then the Classify fold over the winner shares the nodes collected,
	// validated against a brute-force oracle.
	k, n, l := 4, 400, 25
	seed := uint64(99)
	// Four classes, so the vote has real contenders.
	instance := func(id int) *points.Set[points.Scalar] {
		set := instanceFor(seed, id, n)
		for j, label := range set.Labels {
			set.Labels[j] = math.Floor(4 * label)
		}
		return set
	}
	q := points.Scalar(xrand.NewStream(seed, 1<<40).Uint64N(points.PaperDomain))
	var mu sync.Mutex
	boundaries := make([]keys.Key, k)
	shares := make([][]points.Item, k)

	prog := func(m kmachine.Env) error {
		set := instance(m.ID())
		leader, err := election.MinGUID(m)
		if err != nil {
			return err
		}
		res, err := core.KNN(m, core.Config{Leader: leader, L: l}, set.TopLItems(q, l))
		if err != nil {
			return err
		}
		mu.Lock()
		boundaries[m.ID()] = res.Boundary
		shares[m.ID()] = res.Winners
		mu.Unlock()
		return nil
	}
	mustRunSetupEpoch(t, k, seed, prog)

	// Oracle: merge all machines' data and brute-force the query.
	var parts []*points.Set[points.Scalar]
	for i := 0; i < k; i++ {
		parts = append(parts, instance(i))
	}
	want := points.Merge(parts).BruteKNN(q, l)
	wantBoundary := want[l-1].Key
	for i := 0; i < k; i++ {
		if boundaries[i] != wantBoundary {
			t.Errorf("node %d boundary %v, want %v", i, boundaries[i], wantBoundary)
		}
	}
	label, err := core.ClassifyShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	if v := bruteVote(want); label != v {
		t.Errorf("classified %g from the collected shares, brute-force vote %g", label, v)
	}
}

// bruteVote is the majority label of items, ties toward the smallest.
func bruteVote(items []points.Item) float64 {
	count := make(map[float64]int)
	for _, it := range items {
		count[it.Label]++
	}
	best, bestCount := math.Inf(1), 0
	for label, c := range count {
		if c > bestCount || (c == bestCount && label < best) {
			best, bestCount = label, c
		}
	}
	return best
}

func TestTCPMatchesSimulator(t *testing.T) {
	// With the same epoch seed, a one-lane TCP epoch and the simulator at the
	// socket link budget must make bit-identical protocol decisions — the
	// same answer at the same cost, message for message.
	k, n, l := 3, 200, 10
	seed := uint64(55)
	q := points.Scalar(12345678)

	prog := func(record func(id int, res core.Result)) kmachine.Program {
		return func(m kmachine.Env) error {
			set := instanceFor(seed, m.ID(), n)
			res, err := core.KNN(m, core.Config{Leader: 0, L: l}, set.TopLItems(q, l))
			if err != nil {
				return err
			}
			record(m.ID(), res)
			return nil
		}
	}
	recordInto := func(out []core.Result) func(int, core.Result) {
		var mu sync.Mutex
		return func(id int, res core.Result) {
			mu.Lock()
			out[id] = res
			mu.Unlock()
		}
	}

	tcpRes := make([]core.Result, k)
	tcpMet := mustRunSetupEpoch(t, k, seed, prog(recordInto(tcpRes)))

	simRes := make([]core.Result, k)
	simMet, err := kmachine.Run(kmachine.Config{K: k, Seed: xrand.DeriveSeed(seed, SetupSeedStream), BandwidthBytes: linkBudget},
		prog(recordInto(simRes)))
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for i := 0; i < k; i++ {
		if tcpRes[i].Boundary != simRes[i].Boundary {
			t.Errorf("node %d: tcp %v != sim %v", i, tcpRes[i].Boundary, simRes[i].Boundary)
		}
		if tcpRes[i].Iterations != simRes[i].Iterations || tcpRes[i].Survivors != simRes[i].Survivors {
			t.Errorf("node %d: tcp %d iterations / %d survivors, sim %d / %d", i,
				tcpRes[i].Iterations, tcpRes[i].Survivors, simRes[i].Iterations, simRes[i].Survivors)
		}
		if tcpMet[i].Messages != simMet.SentMessages[i] || tcpMet[i].Bytes != simMet.SentBytes[i] {
			t.Errorf("node %d: tcp sent %d messages / %d bytes, sim %d / %d", i,
				tcpMet[i].Messages, tcpMet[i].Bytes, simMet.SentMessages[i], simMet.SentBytes[i])
		}
		rounds = max(rounds, tcpMet[i].Rounds)
	}
	// The simulator counts rounds until the last machine halts; so does the
	// slowest node. With sim == tcp, the simulator's exact round law
	// (core's TestKNNRoundLaw) holds on sockets too.
	if rounds != simMet.Rounds {
		t.Errorf("tcp epoch took %d rounds, sim %d", rounds, simMet.Rounds)
	}
	if want := 2*simRes[0].Iterations + 6; rounds != want {
		t.Errorf("%d rounds for %d iterations, want %d", rounds, simRes[0].Iterations, want)
	}
}

// TestEpochFrameBudget pins what an epoch's topology costs on the wire.
// Every node runs R rounds of a leader-star exchange (the hub broadcasts,
// each worker sends it one message) and halts. On the full mesh that costs
// k(k−1) frames a round; in a star around the same hub, 2(k−1): each worker
// writes only to the hub, the hub to each worker. The final halt frames
// cost one more round's worth either way — every node halts in round R, so
// none has seen another's halt before writing its own. The messages are the
// same in both: Frames is transport, not protocol.
func TestEpochFrameBudget(t *testing.T) {
	const k, hub, R = 4, 2, 5
	prog := func(m kmachine.Env) error {
		for r := 0; r < R; r++ {
			if m.ID() == hub {
				m.Broadcast([]byte{byte(r)})
			} else {
				m.Send(hub, []byte{byte(r)})
			}
			m.EndRound()
		}
		return nil
	}
	check := func(name string, metrics []Metrics, errs []error, perRound int64) {
		t.Helper()
		var frames, messages int64
		for i, met := range metrics {
			if errs[i] != nil {
				t.Fatalf("%s: node %d: %v", name, i, errs[i])
			}
			if met.Rounds != R {
				t.Errorf("%s: node %d ran %d rounds, want %d", name, i, met.Rounds, R)
			}
			frames += met.Frames
			messages += met.Messages
		}
		if want := perRound * (R + 1); frames != want {
			t.Errorf("%s: %d frames over %d rounds, want %d per round plus the final frames = %d", name, frames, R, perRound, want)
		}
		if want := int64(2 * (k - 1) * R); messages != want {
			t.Errorf("%s: %d messages, want %d", name, messages, want)
		}
	}
	nodes := startMesh(t, k, 5)
	metrics, errs := onEveryNode(nodes, func(n *Node) (Metrics, error) { return n.runEpoch(0, 1, prog) })
	check("setup epoch (full mesh)", metrics, errs, k*(k-1))
	metrics, errs = runStarEpoch(nodes, 1, hub, prog)
	check("query epoch (star)", metrics, errs, 2*(k-1))
}

func TestSingleNodeCluster(t *testing.T) {
	mustRunSetupEpoch(t, 1, 7, func(m kmachine.Env) error {
		if m.K() != 1 || m.ID() != 0 {
			return fmt.Errorf("bad identity")
		}
		return nil
	})
}

func TestNodeGUIDMatchesSimulator(t *testing.T) {
	var tcpGUID, simGUID uint64
	mustRunSetupEpoch(t, 1, 42, func(m kmachine.Env) error {
		tcpGUID = m.GUID()
		return nil
	})
	if _, err := kmachine.Run(kmachine.Config{K: 1, Seed: xrand.DeriveSeed(42, SetupSeedStream)}, func(m kmachine.Env) error {
		simGUID = m.GUID()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tcpGUID != simGUID {
		t.Errorf("GUIDs differ: %d vs %d", tcpGUID, simGUID)
	}
}
