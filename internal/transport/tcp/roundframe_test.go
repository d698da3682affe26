package tcp

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distknn/internal/election"
	"distknn/internal/kmachine"
	"distknn/internal/wire"
)

// captureConn is a net.Conn that only records what is written to it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// TestRoundFrameGoldenBytes pins the round frame with the lane index in the
// framing to the bytes the previous form put on the wire, where a batched
// message was Varint(lane) ++ payload inside a length-prefixed blob (the
// golden hex was produced by that code): batched frames did not change.
func TestRoundFrameGoldenBytes(t *testing.T) {
	msgs := []laneMsg{
		{lane: 0, payload: []byte("hi")},
		{lane: 1},
		{lane: 128, payload: []byte("batched")},             // two-byte lane index
		{lane: 3, payload: bytes.Repeat([]byte{0xab}, 127)}, // two-byte length, pushed there by the lane byte
	}
	golden := "97000000" + "00" + "ac02" + "05" + "04" +
		"03" + "00" + "6869" +
		"01" + "01" +
		"09" + "8001" + "62617463686564" +
		"8001" + "03" + strings.Repeat("ab", 127)
	var c captureConn
	if err := writeRoundFrame(&c, flagData, 300, 5, msgs); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(c.buf.Bytes()); got != golden {
		t.Fatalf("round frame bytes\n got %s\nwant %s", got, golden)
	}
	f, err := parseRoundFrame(c.buf.Bytes()[4:])
	if err != nil {
		t.Fatal(err)
	}
	if f.flag != flagData || f.epoch != 300 || f.round != 5 || len(f.msgs) != len(msgs) {
		t.Fatalf("parsed %+v", f)
	}
	for i, m := range msgs {
		if f.msgs[i].lane != m.lane || !bytes.Equal(f.msgs[i].payload, m.payload) {
			t.Errorf("message %d parsed as lane %d %q, want lane %d %q", i, f.msgs[i].lane, f.msgs[i].payload, m.lane, m.payload)
		}
	}
}

// TestParseRoundFrameRejectsHostileFrames feeds parseRoundFrame frames no
// well-behaved peer writes; each must be an error (which costs the sender
// its link), never a panic, an allocation sized by the sender, or a message.
func TestParseRoundFrameRejectsHostileFrames(t *testing.T) {
	cases := []struct {
		name    string
		payload string // hex
	}{
		{"empty", ""},
		{"truncated header", "0001"},
		{"no message count", "000102"},
		{"message length past the end", "000000" + "01" + "05" + "006869"},
		{"message count larger than the payload", "000000" + "ffffffff0f" + "0100"},
		{"message without a lane index", "000000" + "01" + "00"},
		{"lane index running past its message", "000000" + "01" + "01" + "8001"},
		{"lane index 2^63", "000000" + "01" + "0a" + "80808080808080808001"},
		{"lane index overflowing 64 bits", "000000" + "01" + "0b" + "ffffffffffffffffffff7f"},
	}
	for _, tc := range cases {
		payload, err := hex.DecodeString(tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		if f, err := parseRoundFrame(payload); err == nil {
			t.Errorf("%s: parsed as %+v, want an error", tc.name, f)
		}
	}
}

// TestEpochRejectsMessageForMissingLane plays a peer that sends a message
// for lane b of a b-lane epoch. The receiving epoch must fail with a
// transport fault naming that peer — not hang, and not hand the message to
// one of the lanes it does have.
func TestEpochRejectsMessageForMissingLane(t *testing.T) {
	const b = 3
	release := make(chan struct{})
	defer close(release)
	addr := meshStub(t, func(conn net.Conn) {
		if err := wire.WriteFrame(conn, nil); err != nil {
			t.Errorf("stub acceptor ack: %v", err)
		}
		if err := writeRoundFrame(conn, flagData, 0, 0, []laneMsg{{lane: b, payload: []byte("stray")}}); err != nil {
			t.Errorf("stub acceptor round frame: %v", err)
		}
		<-release
	})
	node := newNode(1, 2, 0)
	defer node.closePeers()
	if err := dialPeer(node, 0, addr); err != nil {
		t.Fatal(err)
	}
	er, err := node.beginEpoch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]kmachine.Program, b)
	for qi := range progs {
		progs[qi] = func(m kmachine.Env) error {
			m.EndRound()
			t.Errorf("lane %d got past the poisoned round with %d message(s)", qi, len(m.Recv()))
			return nil
		}
	}
	done := make(chan error, 1)
	go func() { done <- er.run(progs) }()
	select {
	case err := <-done:
		if !IsTransportError(err) || LostPeer(err) != 0 {
			t.Fatalf("epoch ended with %v (lost peer %d), want a transport fault naming peer 0", err, LostPeer(err))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the epoch hung on a message for a lane it does not have")
	}
	if p := node.peerSnapshot()[0]; p != nil {
		t.Error("the link to the offending peer stayed installed")
	}
}

// TestStarEpochRejectsWorkerToWorkerMessage plays a query program that
// breaks the star contract: in a live 3-node star epoch around node 0 (the
// leader of seed 12), worker 1 messages worker 2. That is the program's
// fault, not the mesh's: the epoch must fail on every node — worker 2 learns
// of it only through the hub — with a program error naming both nodes,
// without hanging and without dropping a link, and the next star epoch must
// succeed.
func TestStarEpochRejectsWorkerToWorkerMessage(t *testing.T) {
	const k, hub, seed = 3, 0, 12
	if l := election.Leader(seed, k); l != hub {
		t.Fatalf("seed %d elects %d, the test needs a star around %d", seed, l, hub)
	}
	nodes := startMesh(t, k, seed)
	star := func(ordinal uint64, prog kmachine.Program) []error {
		t.Helper()
		done := make(chan []error, 1)
		go func() {
			_, errs := runStarEpoch(nodes, ordinal, prog)
			done <- errs
		}()
		select {
		case errs := <-done:
			return errs
		case <-time.After(10 * time.Second):
			t.Fatalf("star epoch %d hung", ordinal)
			return nil
		}
	}

	errs := star(1, func(m kmachine.Env) error {
		if m.ID() == 1 {
			m.Send(2, []byte("sideways"))
		}
		for {
			m.EndRound() // spins until the epoch is aborted
		}
	})
	for i, err := range errs {
		if err == nil || IsTransportError(err) {
			t.Errorf("node %d ended the rogue epoch with %v, want a program error", i, err)
		}
	}
	if msg := fmt.Sprint(errs[1]); !strings.Contains(msg, "node 1") || !strings.Contains(msg, "node 2") {
		t.Errorf("the violation %q does not name both nodes", msg)
	}
	for i, n := range nodes {
		for j, p := range n.peerSnapshot() {
			if n.neighbour(j) && p == nil {
				t.Errorf("node %d dropped its link to %d over a program error", i, j)
			}
		}
	}

	for i, err := range star(2, func(m kmachine.Env) error {
		if m.ID() == hub {
			m.Gather(k - 1)
		} else {
			m.Send(hub, []byte{byte(m.ID())})
		}
		return nil
	}) {
		if err != nil {
			t.Errorf("node %d: the star epoch after the violation failed: %v", i, err)
		}
	}
}

// TestLinkBudgetFitsABatchFrame pins linkBudget under the frame cap. In a
// batch epoch each of up to wire.MaxBatch lanes may send a peer one
// budget-sized message in the same round — a gather reply at its widest —
// and all of them travel in one round frame, which the peer must accept.
func TestLinkBudgetFitsABatchFrame(t *testing.T) {
	// frameLen is the payload length writeRoundFrame produces for b lanes
	// that each send one size-byte message, at the widest epoch and round.
	frameLen := func(b, size int) int {
		n := 1 + 2*wire.VarintLen(math.MaxUint64) + wire.VarintLen(uint64(b))
		for lane := 0; lane < b; lane++ {
			n += wire.VarintLen(uint64(wire.VarintLen(uint64(lane))+size)) + wire.VarintLen(uint64(lane)) + size
		}
		return n
	}
	msgs := make([]laneMsg, 200)
	for i := range msgs {
		msgs[i] = laneMsg{lane: i, payload: make([]byte, 300)}
	}
	var c captureConn
	if err := writeRoundFrame(&c, flagData, math.MaxUint64, math.MaxUint64, msgs); err != nil {
		t.Fatal(err)
	}
	if got, want := c.buf.Len()-4, frameLen(len(msgs), 300); got != want {
		t.Fatalf("writeRoundFrame wrote a %d-byte payload, frameLen says %d", got, want)
	}
	if n := frameLen(wire.MaxBatch, linkBudget); n > wire.MaxFrame {
		t.Errorf("%d lanes of %d-byte messages make a %d-byte round frame, over the %d-byte cap",
			wire.MaxBatch, linkBudget, n, wire.MaxFrame)
	}
}

// BenchmarkStarRoundBytes times one round of a k = 4 star epoch on a real
// loopback mesh — the hub broadcasts a gather-query-sized message, each
// worker answers with a message of the swept size, overhead included —
// so ns/op is the cost of a round against the bytes it carries. linkBudget
// is read off this curve.
func BenchmarkStarRoundBytes(b *testing.B) {
	const k, seed = 4, 31
	hub := election.Leader(seed, k)
	nodes := startMesh(b, k, seed)
	epoch := uint64(0)
	for _, size := range []int{64, 4 << 10, 8 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			query, reply := make([]byte, 33), make([]byte, size-kmachine.MessageOverheadBytes)
			rounds := b.N
			epoch++
			b.ResetTimer()
			_, errs := runStarEpoch(nodes, epoch, func(m kmachine.Env) error {
				for range rounds {
					if m.ID() == hub {
						m.Broadcast(query)
					} else {
						m.Send(hub, reply)
					}
					m.EndRound()
					m.Recv()
				}
				return nil
			})
			for i, err := range errs {
				if err != nil {
					b.Fatalf("node %d: %v", i, err)
				}
			}
		})
	}
}

// maxLintAllows is the number of audited //knnlint:allow directives in this
// package's non-test files. ROADMAP: the count should fall, not hold — lower
// it in the commit that removes one; raising it needs the same argument in
// review that the directive itself does.
const maxLintAllows = 15

func TestLintAllowBudget(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		n += strings.Count(string(src), "//knnlint:allow ")
	}
	if n > maxLintAllows {
		t.Errorf("%d //knnlint:allow directives in internal/transport/tcp, budget is %d", n, maxLintAllows)
	}
	if n < maxLintAllows {
		t.Errorf("%d //knnlint:allow directives left — lower maxLintAllows from %d to lock the gain in", n, maxLintAllows)
	}
}
