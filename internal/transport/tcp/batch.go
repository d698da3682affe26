package tcp

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"distknn/internal/kmachine"
	"distknn/internal/xrand"
)

// This file is how a program runs on the mesh: as a lane of an epoch. An
// epoch runs b programs — one for the setup epoch and for a single query, one
// per query point for a batch — each against the full kmachine.Env surface,
// all sharing the epoch's physical rounds: their per-round messages travel
// in the one frame per live edge, each carrying its lane index, and are
// filed under that lane on arrival. An epoch of b lanes therefore costs
// max(rounds over the b programs) physical round exchanges instead of their
// sum: frames, syscalls and per-round latency are amortized b-fold, which is
// what makes batched dispatch the wire-native query shape worth having.
//
// The BSP semantics per lane are the simulator's. Every lane starts at
// physical round 0 and advances exactly one physical round per EndRound, so
// a lane's logical round always equals the physical round while it runs; a
// message sent in its round r is delivered to the peer's same lane in round
// r+1. Lane 0 draws its private randomness from the epoch's own stream,
// NewStream(epochSeed, id) — a one-lane epoch is bit-for-bit a kmachine.Run
// at the epoch seed — and lane q ≥ 1 from NewStream(DeriveSeed(epochSeed, q),
// id): deterministic per (session seed, epoch, lane), and a lane only ever
// observes its own messages in per-sender order, so its protocol decisions
// are independent of how the runtime interleaves the epoch. Results are exact
// either way, and a batch's are bit-identical to the same queries asked one
// per epoch.

// run executes progs as the lanes of this epoch, translates the outcome into
// halt or error frames for the peers and releases the epoch's frame feeds.
// It leaves the connections open so other (and later) epochs keep running on
// the standing mesh. The first failure wins: a failed exchange (transport
// fault, peer abort) or the first lane whose program fails.
func (er *epochRun) run(progs []kmachine.Program) error {
	defer er.release()
	er.active = len(progs)
	er.inbox = make([][]kmachine.Message, len(progs))
	var wg sync.WaitGroup
	for qi, prog := range progs {
		seed := er.seed
		if qi > 0 {
			seed = xrand.DeriveSeed(er.seed, uint64(qi))
		}
		l := &lane{er: er, qi: qi, rng: xrand.NewStream(seed, uint64(er.n.id))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			er.finish(l, l.run(prog))
		}()
	}
	wg.Wait()
	// The final frame is write-only and best effort: a halted node never
	// reads again (the simulator's semantics), and the peer may have halted
	// concurrently. A clean halt flushes the pending sends with it; an error
	// frame tells the peers this epoch is gone here.
	var flag byte = flagHalt
	if er.err != nil {
		flag = flagErr
	}
	er.send(flag)
	return er.err
}

// finish retires one lane: its unflushed sends still travel (with the next
// exchange, or the epoch's final halt frame), and if every remaining lane is
// already parked at the barrier, the retiree triggers the exchange they are
// waiting for.
func (er *epochRun) finish(l *lane, err error) {
	er.mu.Lock()
	defer er.mu.Unlock()
	l.flushLocked()
	er.active--
	if err != nil && er.err == nil {
		er.err = err
	}
	if er.err != nil {
		er.cond.Broadcast()
	} else if er.active > 0 && er.waiting == er.active {
		er.roundLocked()
	}
}

// roundLocked performs one physical round exchange on behalf of every parked
// lane and wakes them. The caller holds er.mu; lanes parked in cond.Wait have
// released it. A failed exchange becomes the sticky epoch error, which every
// woken lane re-panics.
func (er *epochRun) roundLocked() {
	if err := er.exchange(); err != nil {
		er.err = err
	}
	er.gen++
	er.waiting = 0
	er.cond.Broadcast()
}

// lane is the kmachine.Env a program on the mesh sees — package tcp's only
// one: the node's identity, private randomness, and messaging multiplexed
// onto the epoch's shared physical rounds.
type lane struct {
	er  *epochRun
	qi  int
	rng *rand.Rand

	pending []kmachine.Message
	out     []laneSend
	bytes   int64
}

var _ kmachine.Env = (*lane)(nil)

type laneSend struct {
	to      int
	payload []byte
}

// run executes the lane's program, converting panics (including the sticky
// epoch error re-panicked by EndRound) into ordinary errors.
func (l *lane) run(prog kmachine.Program) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("tcp: node %d lane %d panicked: %v", l.er.n.id, l.qi, rec)
			}
		}
	}()
	return prog(l)
}

// ID returns the node's machine index.
func (l *lane) ID() int { return l.er.n.id }

// K returns the cluster size.
func (l *lane) K() int { return l.er.n.k }

// GUID returns the node's unique identifier for this epoch, derived from
// the epoch seed exactly as the simulator derives it.
func (l *lane) GUID() uint64 { return l.er.guid }

// Rand returns the lane's private random stream (lane 0's is the
// simulator's stream for this machine at the epoch seed).
func (l *lane) Rand() *rand.Rand { return l.rng }

// Round returns the current physical (== logical) round.
func (l *lane) Round() int {
	l.er.mu.Lock()
	defer l.er.mu.Unlock()
	return l.er.round
}

// Send queues payload for machine `to` next round.
func (l *lane) Send(to int, payload []byte) {
	n := l.er.n
	if to < 0 || to >= n.k {
		panic(fmt.Sprintf("tcp: node %d sending to out-of-range %d", n.id, to))
	}
	if to == n.id {
		panic(fmt.Sprintf("tcp: node %d sending to itself", n.id))
	}
	if !l.er.edge(to) {
		// A program error, not a transport fault: the lane fails the epoch
		// before anything reaches the wire, and every link stays up.
		panic(fmt.Errorf("tcp: node %d sent to node %d in epoch %d, a star around node %d: a query program talks only to the leader",
			n.id, to, l.er.epoch, l.er.hub))
	}
	l.out = append(l.out, laneSend{to: to, payload: payload})
	// Charge the protocol payload only: the lane index is transport framing.
	l.bytes += int64(len(payload) + kmachine.MessageOverheadBytes)
}

// Broadcast sends payload to every other machine.
func (l *lane) Broadcast(payload []byte) {
	for to := 0; to < l.er.n.k; to++ {
		if to != l.er.n.id {
			l.Send(to, payload)
		}
	}
}

// flushLocked moves the lane's queued sends into the epoch outbox the next
// physical exchange ships, and folds its message counts into the epoch
// metrics. Caller holds er.mu.
func (l *lane) flushLocked() {
	er := l.er
	for _, s := range l.out {
		er.outbox[s.to] = append(er.outbox[s.to], laneMsg{lane: l.qi, payload: s.payload})
	}
	er.metrics.Messages += int64(len(l.out))
	er.metrics.Bytes += l.bytes
	l.out, l.bytes = l.out[:0], 0
}

// EndRound commits this lane's sends and blocks until the shared physical
// round completes. The last active lane to arrive performs the exchange for
// everyone.
func (l *lane) EndRound() {
	er := l.er
	er.mu.Lock()
	defer er.mu.Unlock()
	if er.err == nil {
		l.flushLocked()
		gen := er.gen
		er.waiting++
		if er.waiting == er.active {
			er.roundLocked()
		}
		for er.gen == gen && er.err == nil {
			er.cond.Wait()
		}
	}
	if er.err != nil {
		panic(er.err) // recovered by run
	}
	l.pending = append(l.pending, er.inbox[l.qi]...)
	er.inbox[l.qi] = er.inbox[l.qi][:0]
}

// Recv takes this round's messages for this lane.
func (l *lane) Recv() []kmachine.Message {
	in := l.pending
	l.pending = nil
	return in
}

// Gather advances rounds until n messages have been received.
func (l *lane) Gather(want int) []kmachine.Message {
	got := l.Recv()
	for len(got) < want {
		l.EndRound()
		got = append(got, l.Recv()...)
	}
	return got
}

// WaitAny advances rounds until at least one message arrives.
func (l *lane) WaitAny() []kmachine.Message { return l.Gather(1) }
