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

// startMesh brings up a real resident star of k nodes and returns them
// indexed by machine id. It is the production bring-up minus the Handler:
// Frontend rendezvous, joinServe, meshAcceptLoop, then a dial of every star
// neighbour the grant lists. The mesh stays up until the test ends, as a
// resident one outlives its epochs.
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
			node := newNode(a.ID, a.K, election.Leader(a.Seed, a.K))
			t.Cleanup(node.closePeers)
			go meshAcceptLoop(node, ln)
			for _, j := range a.Present {
				if err := dialPeer(node, j, a.Addrs[j]); err != nil {
					t.Error(err)
					return
				}
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

// runStarEpoch runs prog as the one-lane epoch ordinal on every node of a
// standing star, as a dispatched query epoch runs, with the ordinal as its
// epoch seed — so a simulator twin seeds kmachine.Run with the ordinal.
func runStarEpoch(nodes []*Node, ordinal uint64, prog kmachine.Program) ([]Metrics, []error) {
	return onEveryNode(nodes, func(n *Node) (Metrics, error) {
		er, err := n.beginEpoch(ordinal, ordinal)
		if err != nil {
			return Metrics{}, err
		}
		err = er.run([]kmachine.Program{prog})
		return er.metrics, err
	})
}

// mustRunStarEpoch brings up a fresh k-node star for the session seed and
// runs prog as its epoch seed, a program every node must finish.
func mustRunStarEpoch(t *testing.T, k int, seed uint64, prog kmachine.Program) []Metrics {
	t.Helper()
	metrics, errs := runStarEpoch(startMesh(t, k, seed), seed, prog)
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
			msgs := m.Gather(1)
			if string(msgs[0].Payload) != "pong" {
				return fmt.Errorf("got %q", msgs[0].Payload)
			}
			return nil
		}
		msgs := m.Gather(1)
		if string(msgs[0].Payload) != "ping" {
			return fmt.Errorf("got %q", msgs[0].Payload)
		}
		m.Send(0, []byte("pong"))
		return nil
	}
	metrics := mustRunStarEpoch(t, 2, 1, prog)
	if metrics[0].Messages != 1 || metrics[1].Messages != 1 {
		t.Errorf("metrics: %+v", metrics)
	}
}

// TestBroadcastGatherOverTCP runs one star round trip: every worker sends
// the leader its id, the leader gathers them all and broadcasts its own.
func TestBroadcastGatherOverTCP(t *testing.T) {
	const k, seed = 5, 2
	leader := election.Leader(seed, k)
	prog := func(m kmachine.Env) error {
		want := 1
		if m.ID() == leader {
			want = k - 1
			m.Broadcast([]byte{byte(m.ID())})
		} else {
			m.Send(leader, []byte{byte(m.ID())})
		}
		m.EndRound()
		seen := make(map[int]bool)
		for _, msg := range m.Gather(want) {
			if int(msg.Payload[0]) != msg.From {
				return fmt.Errorf("corrupt payload from %d", msg.From)
			}
			seen[msg.From] = true
		}
		if len(seen) != want {
			return fmt.Errorf("saw %d peers, want %d", len(seen), want)
		}
		return nil
	}
	mustRunStarEpoch(t, k, seed, prog)
}

func TestStaggeredHalts(t *testing.T) {
	// Workers halt at different rounds; later rounds must keep working
	// between the leader and the last worker.
	const k, seed = 4, 3
	leader := election.Leader(seed, k)
	last := (leader + k - 1) % k
	prog := func(m kmachine.Env) error {
		// The worker at distance d from the leader spins d*3 rounds, then
		// (unless it is the last) halts; the leader keeps talking to the
		// last worker the whole time.
		switch m.ID() {
		case leader:
			for r := 0; r < 9; r++ {
				m.Send(last, []byte{byte(r)})
				m.EndRound()
			}
			return nil
		case last:
			got := 0
			for got < 9 {
				got += len(m.Gather(1))
			}
			return nil
		default:
			for r := 0; r < (m.ID()-leader+k)%k*3; r++ {
				m.EndRound()
			}
			return nil
		}
	}
	mustRunStarEpoch(t, k, seed, prog)
}

func TestErrorPropagatesAcrossCluster(t *testing.T) {
	boom := errors.New("boom")
	prog := func(m kmachine.Env) error {
		if m.ID() == 1 {
			m.EndRound()
			return boom
		}
		for {
			m.EndRound() // spins until aborted by node 1's error frame
		}
	}
	_, errs := runStarEpoch(startMesh(t, 3, 4), 4, prog)
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
	// The headline integration: Algorithm 2 around the seed's leader over
	// real sockets, then the Classify fold over the winner shares the nodes
	// collected, validated against a brute-force oracle.
	k, n, l := 4, 400, 25
	seed := uint64(99)
	leader := election.Leader(seed, k)
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
	mustRunStarEpoch(t, k, seed, prog)

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
	// same answer at the same cost, message for message. At ℓ = 10 every
	// node's sample is its whole local top-ℓ and the leader finishes at the
	// sample; at ℓ = 128 the samples are partial and the prune runs.
	k, n := 3, 200
	seed := uint64(55)
	q := points.Scalar(12345678)
	leader := election.Leader(seed, k)

	prog := func(l int, record func(id int, res core.Result)) kmachine.Program {
		return func(m kmachine.Env) error {
			set := instanceFor(seed, m.ID(), n)
			res, err := core.KNN(m, core.Config{Leader: leader, L: l}, set.TopLItems(q, l))
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

	for _, l := range []int{10, 128} {
		tcpRes := make([]core.Result, k)
		tcpMet := mustRunStarEpoch(t, k, seed, prog(l, recordInto(tcpRes)))

		simRes := make([]core.Result, k)
		simMet, err := kmachine.Run(kmachine.Config{K: k, Seed: seed, BandwidthBytes: linkBudget},
			prog(l, recordInto(simRes)))
		if err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for i := 0; i < k; i++ {
			if tcpRes[i].Boundary != simRes[i].Boundary {
				t.Errorf("l=%d node %d: tcp %v != sim %v", l, i, tcpRes[i].Boundary, simRes[i].Boundary)
			}
			if tcpRes[i].Iterations != simRes[i].Iterations || tcpRes[i].Survivors != simRes[i].Survivors {
				t.Errorf("l=%d node %d: tcp %d iterations / %d survivors, sim %d / %d", l, i,
					tcpRes[i].Iterations, tcpRes[i].Survivors, simRes[i].Iterations, simRes[i].Survivors)
			}
			if tcpMet[i].Messages != simMet.SentMessages[i] || tcpMet[i].Bytes != simMet.SentBytes[i] {
				t.Errorf("l=%d node %d: tcp sent %d messages / %d bytes, sim %d / %d", l, i,
					tcpMet[i].Messages, tcpMet[i].Bytes, simMet.SentMessages[i], simMet.SentBytes[i])
			}
			rounds = max(rounds, tcpMet[i].Rounds)
		}
		// The simulator counts rounds until the last machine halts; so does
		// the slowest node. With sim == tcp, the simulator's exact round law
		// (core's TestKNNRoundLaw) holds on sockets too.
		if rounds != simMet.Rounds {
			t.Errorf("l=%d: tcp epoch took %d rounds, sim %d", l, rounds, simMet.Rounds)
		}
		want := 2*simRes[0].Iterations + 6
		if l == 10 {
			if simRes[0].Iterations != 0 {
				t.Errorf("l=10: %d iterations after a complete sample, want 0", simRes[0].Iterations)
			}
			want = 2
		}
		if rounds != want {
			t.Errorf("l=%d: %d rounds for %d iterations, want %d", l, rounds, simRes[0].Iterations, want)
		}
	}
}

// TestEpochFrameBudget pins what an epoch costs on the wire. Every node runs
// R rounds of a leader-star exchange (the hub broadcasts, each worker sends
// it one message) and halts. That costs 2(k−1) frames a round: each worker
// writes only to the hub, the hub to each worker. The final halt frames
// cost one more round's worth — every node halts in round R, so none has
// seen another's halt before writing its own.
func TestEpochFrameBudget(t *testing.T) {
	const k, seed, R = 4, 5, 5
	hub := election.Leader(seed, k)
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
	var frames, messages int64
	for i, met := range mustRunStarEpoch(t, k, seed, prog) {
		if met.Rounds != R {
			t.Errorf("node %d ran %d rounds, want %d", i, met.Rounds, R)
		}
		frames += met.Frames
		messages += met.Messages
	}
	const perRound = 2 * (k - 1)
	if want := int64(perRound * (R + 1)); frames != want {
		t.Errorf("%d frames over %d rounds, want %d per round plus the final frames = %d", frames, R, perRound, want)
	}
	if want := int64(2 * (k - 1) * R); messages != want {
		t.Errorf("%d messages, want %d", messages, want)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	mustRunStarEpoch(t, 1, 7, func(m kmachine.Env) error {
		if m.K() != 1 || m.ID() != 0 {
			return fmt.Errorf("bad identity")
		}
		return nil
	})
}
