// Package election implements leader election in the k-machine model.
//
// Both Algorithm 1 and Algorithm 2 of the paper open with "elect a leader
// machine"; the paper points to Kutten, Pandurangan, Peleg, Robinson and
// Trehan (TCS 2015), which elects a leader in a complete network in O(1)
// rounds and O(√k·log^{3/2} k) messages. Two electors are provided:
//
//   - MinGUID: every machine broadcasts its GUID and the minimum wins.
//     One round, Θ(k²) messages, deterministic given GUIDs. The obvious
//     protocol, used as the oracle.
//
//   - Sublinear: a referee-based randomized election in the spirit of
//     Kutten et al. A few self-nominated candidates each contact ~√(k·log k)
//     random referees; a referee endorses only the highest-priority candidate
//     it has heard from; a fully endorsed candidate announces victory and the
//     highest-priority announcement wins everywhere. The candidate/referee
//     phases cost O(√k·log^{3/2} k) messages in expectation; the final
//     announcement costs Θ(k) more because — unlike the "implicit" variant in
//     the literature — every machine here must learn the leader's identity
//     to run the selection protocols.
//
// Both return the same value on every machine, which is all the callers rely
// on. Once runs either elector as one simulator run so a long-lived cluster
// elects at construction and caches the winner; the paper's per-query
// election cost then amortizes to zero over the query stream.
package election

import (
	"fmt"
	"math"

	"distknn/internal/kmachine"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// OnceOptions selects the elector for Once.
type OnceOptions struct {
	// Sublinear selects the randomized referee election instead of the
	// min-GUID broadcast.
	Sublinear bool
}

// Once runs a single leader election as one simulator run under cfg and
// returns the agreed leader index together with the run's cost. It is the
// construction-time path of a long-lived cluster: elect once, cache the
// winner, and let every steady-state query skip election entirely (any index
// all machines agree on is a valid leader for the selection protocols, which
// only require agreement).
func Once(cfg kmachine.Config, opts OnceOptions) (int, *kmachine.Metrics, error) {
	elect := MinGUID
	if opts.Sublinear {
		elect = Sublinear
	}
	leaders := make([]int, cfg.K)
	prog := func(m kmachine.Env) error {
		leader, err := elect(m)
		if err != nil {
			return err
		}
		leaders[m.ID()] = leader
		return nil
	}
	met, err := kmachine.Run(cfg, prog)
	if err != nil {
		return 0, nil, err
	}
	for i, leader := range leaders {
		if leader != leaders[0] {
			return 0, met, fmt.Errorf("election: machine %d elected %d, machine 0 elected %d", i, leader, leaders[0])
		}
	}
	return leaders[0], met, nil
}

// MinGUID elects the machine with the smallest GUID (ties, which cannot
// happen with 64-bit GUIDs in practice, broken by machine index). Every
// machine returns the winner's index after exactly one communication round.
func MinGUID(m kmachine.Env) (int, error) {
	if m.K() == 1 {
		return 0, nil
	}
	var w wire.Writer
	w.U64(m.GUID())
	m.Broadcast(w.Bytes())
	m.EndRound()
	msgs := m.Gather(m.K() - 1)
	best, bestID := m.GUID(), m.ID()
	for _, msg := range msgs {
		r := wire.NewReader(msg.Payload)
		g := r.U64()
		if err := r.Err(); err != nil {
			return 0, fmt.Errorf("election: bad GUID message from %d: %w", msg.From, err)
		}
		if g < best || (g == best && msg.From < bestID) {
			best, bestID = g, msg.From
		}
	}
	return bestID, nil
}

const (
	msgNominate = iota + 1 // candidate → referee: priority
	msgVerdict             // referee → candidate: 1 = endorsed
	msgAnnounce            // winner → all: priority
)

// maxPayload is the largest payload Sublinear sends (type + priority).
const maxPayload = 9

// Sublinear runs the randomized referee election. All machines return the
// same leader index. It uses exactly 3 communication rounds, which needs
// every payload to cross its link in one round: it fails on an Env whose
// Bandwidth is below one election message.
//
// Machine 0 always nominates itself (in addition to the random nominees), so
// at least one candidate exists and no retry phase is needed; the
// highest-priority candidate is endorsed by every referee it contacts, so at
// least one announcement is always made.
func Sublinear(m kmachine.Env) (int, error) {
	k := m.K()
	if k == 1 {
		return 0, nil
	}
	if b := m.Bandwidth(); b >= 0 && b < maxPayload+kmachine.MessageOverheadBytes {
		return 0, fmt.Errorf("election: bandwidth %dB cannot carry a %dB election message in one round",
			b, maxPayload+kmachine.MessageOverheadBytes)
	}

	rng := m.Rand()
	logK := math.Log(float64(k))
	pCand := (2*logK + 1) / float64(k)
	candidate := m.ID() == 0 || rng.Float64() < pCand
	priority := rng.Uint64()

	// Round 0: candidates nominate themselves to ~√(k·log k) referees.
	nReferees := int(math.Ceil(math.Sqrt(float64(k) * (logK + 1))))
	if nReferees > k-1 {
		nReferees = k - 1
	}
	var referees []int
	if candidate {
		for _, idx := range xrand.SampleWithoutReplacement(rng, k-1, nReferees) {
			// Index space [0, k−1) excludes self: shift values ≥ own id.
			to := idx
			if to >= m.ID() {
				to++
			}
			referees = append(referees, to)
		}
		var w wire.Writer
		w.U8(msgNominate)
		w.U64(priority)
		for _, to := range referees {
			m.Send(to, w.Bytes())
		}
	}
	m.EndRound()

	// Round 1: referees endorse the single highest-priority nominator.
	bestFrom, bestPrio, sawNomination := -1, uint64(0), false
	var nominators []int
	for _, msg := range m.Recv() {
		r := wire.NewReader(msg.Payload)
		if r.U8() != msgNominate {
			return 0, fmt.Errorf("election: unexpected message type from %d in referee round", msg.From)
		}
		p := r.U64()
		if err := r.Err(); err != nil {
			return 0, fmt.Errorf("election: bad nomination from %d: %w", msg.From, err)
		}
		nominators = append(nominators, msg.From)
		if !sawNomination || p > bestPrio || (p == bestPrio && msg.From < bestFrom) {
			bestFrom, bestPrio, sawNomination = msg.From, p, true
		}
	}
	for _, from := range nominators {
		var w wire.Writer
		w.U8(msgVerdict)
		if from == bestFrom {
			w.U8(1)
		} else {
			w.U8(0)
		}
		m.Send(from, w.Bytes())
	}
	m.EndRound()

	// Round 2: fully endorsed candidates announce.
	announced := false
	if candidate {
		endorsed := 0
		for _, msg := range m.Recv() {
			r := wire.NewReader(msg.Payload)
			if r.U8() != msgVerdict {
				return 0, fmt.Errorf("election: unexpected message type from %d in verdict round", msg.From)
			}
			if r.U8() == 1 {
				endorsed++
			}
			if err := r.Err(); err != nil {
				return 0, fmt.Errorf("election: bad verdict from %d: %w", msg.From, err)
			}
		}
		if endorsed == len(referees) {
			var w wire.Writer
			w.U8(msgAnnounce)
			w.U64(priority)
			m.Broadcast(w.Bytes())
			announced = true
		}
	}
	m.EndRound()

	// Round 3: everyone adopts the highest-priority announcer. A machine
	// does not receive its own broadcast, so an announcer seeds the
	// comparison with itself.
	leader, leaderPrio, heard := -1, uint64(0), false
	if announced {
		leader, leaderPrio, heard = m.ID(), priority, true
	}
	for _, msg := range m.Recv() {
		r := wire.NewReader(msg.Payload)
		if r.U8() != msgAnnounce {
			return 0, fmt.Errorf("election: unexpected message type from %d in announce round", msg.From)
		}
		p := r.U64()
		if err := r.Err(); err != nil {
			return 0, fmt.Errorf("election: bad announcement from %d: %w", msg.From, err)
		}
		if !heard || p > leaderPrio || (p == leaderPrio && msg.From < leader) {
			leader, leaderPrio, heard = msg.From, p, true
		}
	}
	if !heard {
		return 0, fmt.Errorf("election: machine %d heard no announcement", m.ID())
	}
	return leader, nil
}
