// Package kmachine simulates the k-machine model of Klauck, Nanongkai,
// Pandurangan and Robinson (SODA 2015), the model the paper's algorithms are
// designed and analyzed in.
//
// The model: k ≥ 2 machines, pairwise interconnected by bidirectional
// point-to-point links; computation proceeds in synchronous rounds; in each
// round a machine may send up to B bits over each incident link; local
// computation is free. The cost measures are the number of rounds and the
// number of messages.
//
// The simulator runs each machine as its own goroutine (real parallelism for
// local computation) and synchronizes rounds with a central barrier. Links
// carry a byte-granular capacity cursor: a message of s bytes sent in round r
// occupies the link's capacity timeline starting no earlier than round r+1
// and is delivered in the round during which its last byte crosses. Large
// payloads therefore stretch across ⌈s/B⌉ rounds — which is exactly how the
// "simple method" baseline comes to cost Θ(ℓ) rounds without any hand-coded
// penalty.
//
// Run and RunPrograms are the only entry points: each call starts its k
// machine goroutines, executes, and returns once every one has halted. All
// per-run state is built fresh from the run's seed, so concurrent runs share
// nothing and a run replays bit-for-bit.
package kmachine

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"distknn/internal/xrand"
)

// MessageOverheadBytes models per-message framing (sender, recipient, length)
// charged against link bandwidth in addition to the payload.
const MessageOverheadBytes = 8

// DefaultBandwidth is the per-link capacity in bytes per round used when the
// config does not specify one: 64 bytes ≈ Θ(log n) machine words, enough for
// a constant number of keys per round as the model assumes.
const DefaultBandwidth = 64

// DefaultMaxRounds bounds a run so that a livelocked protocol fails loudly
// instead of hanging the process.
const DefaultMaxRounds = 1 << 22

// ErrMaxRounds is returned when a run exceeds its round budget.
var ErrMaxRounds = errors.New("kmachine: exceeded maximum rounds (livelock?)")

var errCancelled = errors.New("kmachine: run cancelled")

// Message is a payload in flight between two machines.
type Message struct {
	From, To int
	Payload  []byte
}

// Config parameterizes a simulation run.
type Config struct {
	// K is the number of machines (≥ 1; the model requires ≥ 2 but
	// single-machine runs are allowed for testing).
	K int
	// BandwidthBytes is B, the per-directed-link capacity in bytes per
	// round. 0 selects DefaultBandwidth; negative means unlimited.
	BandwidthBytes int
	// Seed drives every machine's private RNG (stream-split, so machines
	// are mutually independent but the run replays deterministically).
	Seed uint64
	// MaxRounds overrides DefaultMaxRounds when positive.
	MaxRounds int
	// MeasureCompute enables wall-clock measurement of local computation
	// (adds two time.Now calls per machine per round).
	MeasureCompute bool
}

// Metrics aggregates the cost of a run in the model's terms.
type Metrics struct {
	// Rounds is the number of synchronous rounds until every machine
	// halted (0 for a protocol that never communicates).
	Rounds int
	// Messages is the total number of point-to-point messages sent.
	Messages int64
	// Bytes is the total bytes sent, including per-message overhead.
	Bytes int64
	// Dangling counts messages that were still in flight, or addressed to
	// an already-halted machine, when the run ended. A correct protocol
	// leaves zero.
	Dangling int
	// CriticalCompute sums, over rounds, the maximum local computation
	// time across machines — the parallel critical path. Only populated
	// when Config.MeasureCompute is set.
	CriticalCompute time.Duration
	// TotalCompute sums all machines' local computation time.
	TotalCompute time.Duration
	// SentMessages and SentBytes break the totals down per machine.
	SentMessages []int64
	SentBytes    []int64
	// ComputeByMachine sums each machine's local computation time across
	// all rounds (populated with MeasureCompute). Its maximum is a
	// noise-robust estimate of the parallel compute path for workloads
	// dominated by one large step, since it avoids accumulating per-round
	// measurement jitter the way CriticalCompute does.
	ComputeByMachine []time.Duration
}

// MaxMachineCompute returns the largest per-machine total compute time.
func (m *Metrics) MaxMachineCompute() time.Duration {
	var max time.Duration
	for _, c := range m.ComputeByMachine {
		if c > max {
			max = c
		}
	}
	return max
}

// CostModel converts model metrics into an estimated wall-clock time on a
// real cluster, where every synchronous round costs a latency α (barrier +
// propagation). Bandwidth is already accounted in Rounds by the simulator.
type CostModel struct {
	RoundLatency time.Duration
}

// DefaultCostModel approximates a commodity cluster interconnect:
// 50µs per synchronous round (the paper's testbed was a 16-node
// InfiniBand-class cluster; MPI barrier plus small-message latencies are
// tens of microseconds).
var DefaultCostModel = CostModel{RoundLatency: 50 * time.Microsecond}

// ModeledTime estimates wall-clock time: rounds × α + parallel compute.
func (m *Metrics) ModeledTime(c CostModel) time.Duration {
	return time.Duration(m.Rounds)*c.RoundLatency + m.CriticalCompute
}

// Env is the execution environment a protocol sees: identity, private
// randomness, and synchronous-round messaging. The in-process simulator's
// *Machine implements it; every protocol in this repository is written
// against it. An Env carries no GUID: the leader every protocol is handed
// is computed from the session seed before the run (package election).
type Env interface {
	// ID returns this machine's index in [0, K()).
	ID() int
	// K returns the number of machines.
	K() int
	// Bandwidth returns B, the bytes a link carries per round including
	// MessageOverheadBytes per message; negative means unlimited. A message
	// of at most B bytes crosses its link in one round.
	Bandwidth() int
	// Rand returns this machine's private random stream.
	Rand() *rand.Rand
	// Round returns the current round number (starting at 0).
	Round() int
	// Send queues payload for the next round on the direct link to `to`.
	Send(to int, payload []byte)
	// Broadcast sends payload to every other machine.
	Broadcast(payload []byte)
	// Recv takes the messages delivered at the start of this round.
	Recv() []Message
	// EndRound commits sends and blocks until the next round starts.
	EndRound()
	// Gather advances rounds until n messages have been received.
	Gather(n int) []Message
}

// Program is the code one machine executes. It runs on its own goroutine;
// the Env argument is its only window to the world.
type Program func(m Env) error

// Machine is the per-machine execution environment handed to a Program.
// Methods must only be called from the program's own goroutine.
type Machine struct {
	id        int
	k         int
	rng       *rand.Rand
	bandwidth int

	round   int
	inbox   []Message
	pending []Message

	resume  chan []Message
	reports chan<- report

	measure      bool
	computeStart time.Time
}

type report struct {
	id      int
	sends   []Message
	halted  bool
	err     error
	compute time.Duration
}

// ID returns this machine's index in [0, K).
func (m *Machine) ID() int { return m.id }

// K returns the number of machines.
func (m *Machine) K() int { return m.k }

// Rand returns this machine's private random stream.
func (m *Machine) Rand() *rand.Rand { return m.rng }

// Bandwidth returns the run's per-link capacity: Config.BandwidthBytes with
// 0 resolved to DefaultBandwidth, negative for unlimited.
func (m *Machine) Bandwidth() int { return m.bandwidth }

// Round returns the current round number (starting at 0).
func (m *Machine) Round() int { return m.round }

// Send queues payload for delivery to machine `to` over the direct link.
// Delivery happens at the earliest in the next round, later if the link's
// bandwidth is saturated. Sending to self or out of range panics: that is a
// protocol bug, not an environmental condition.
func (m *Machine) Send(to int, payload []byte) {
	if to < 0 || to >= m.k {
		panic(fmt.Sprintf("kmachine: machine %d sending to out-of-range %d", m.id, to))
	}
	if to == m.id {
		panic(fmt.Sprintf("kmachine: machine %d sending to itself", m.id))
	}
	m.pending = append(m.pending, Message{From: m.id, To: to, Payload: payload})
}

// Broadcast sends payload to every other machine (k−1 messages).
func (m *Machine) Broadcast(payload []byte) {
	for to := 0; to < m.k; to++ {
		if to != m.id {
			m.Send(to, payload)
		}
	}
}

// Recv takes the messages delivered at the start of the current round. A
// second call in the same round returns nil.
func (m *Machine) Recv() []Message {
	in := m.inbox
	m.inbox = nil
	return in
}

// EndRound commits this round's sends and blocks until every machine has
// done the same; it returns at the start of the next round with the new
// inbox available via Recv.
func (m *Machine) EndRound() {
	var compute time.Duration
	if m.measure {
		//knnlint:allow detsource -- compute-time metric only: feeds Metrics reporting, never the epoch's answer
		compute = time.Since(m.computeStart)
	}
	m.reports <- report{id: m.id, sends: m.pending, compute: compute}
	m.pending = nil
	inbox, ok := <-m.resume
	if !ok {
		panic(errCancelled)
	}
	m.inbox = inbox
	m.round++
	if m.measure {
		//knnlint:allow detsource -- compute-time metric only: feeds Metrics reporting, never the epoch's answer
		m.computeStart = time.Now()
	}
}

// Gather advances rounds until at least n messages have been received
// (counting the current round's undelivered inbox) and returns them in
// arrival order. It is the leader's idiom for collecting staggered,
// bandwidth-queued replies.
func (m *Machine) Gather(n int) []Message {
	got := m.Recv()
	for len(got) < n {
		m.EndRound()
		got = append(got, m.Recv()...)
	}
	return got
}

// Run executes the same program on every machine.
func Run(cfg Config, prog Program) (*Metrics, error) {
	progs := make([]Program, cfg.K)
	for i := range progs {
		progs[i] = prog
	}
	return RunPrograms(cfg, progs)
}

// RunPrograms executes progs[i] on machine i and returns the run's metrics.
// The first program error (or panic) aborts the run and is returned. It is
// safe to call concurrently: machines, random streams, link
// timelines and metrics are all built fresh from cfg.Seed, so concurrent
// runs are isolated and a run replays bit-for-bit. Every machine has halted
// when it returns; its goroutine ends with its halt report.
func RunPrograms(cfg Config, progs []Program) (*Metrics, error) {
	k := cfg.K
	if k < 1 {
		return nil, fmt.Errorf("kmachine: k must be >= 1, got %d", k)
	}
	if len(progs) != k {
		return nil, fmt.Errorf("kmachine: %d programs for %d machines", len(progs), k)
	}
	bandwidth := cfg.BandwidthBytes
	if bandwidth == 0 {
		bandwidth = DefaultBandwidth
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}

	reports := make(chan report, k)
	machines := make([]*Machine, k)
	for i := 0; i < k; i++ {
		machines[i] = &Machine{
			id:        i,
			k:         k,
			rng:       xrand.NewStream(cfg.Seed, uint64(i)),
			bandwidth: bandwidth,
			resume:    make(chan []Message),
			reports:   reports,
			measure:   cfg.MeasureCompute,
		}
	}
	// Each goroutine ends in exactly one halt report (normal return, error,
	// panic, or engine-initiated cancellation), and the engine below does
	// not return before it has collected every machine's halt.
	for i := 0; i < k; i++ {
		go runProgram(machines[i], progs[i])
	}

	metrics := &Metrics{
		SentMessages:     make([]int64, k),
		SentBytes:        make([]int64, k),
		ComputeByMachine: make([]time.Duration, k),
	}
	alive := make([]bool, k)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := k

	// linkCursor[from*k+to] is the absolute byte offset on the link's
	// capacity timeline (round t carries bytes [(t-1)·B, t·B)).
	linkCursor := make([]int64, k*k)
	inTransit := make(map[int][]Message) // delivery round -> messages
	var firstErr error

	cancelAll := func() {
		for i, a := range alive {
			if a {
				close(machines[i].resume)
			}
		}
		// Each cancelled machine emits exactly one final halt report.
		for i, a := range alive {
			if a {
				<-reports
				alive[i] = false
			}
		}
		aliveCount = 0
	}

	for r := 0; ; r++ {
		if r > maxRounds {
			cancelAll()
			return metrics, ErrMaxRounds
		}
		// Collect one report per alive machine for round r.
		var roundMaxCompute time.Duration
		pending := aliveCount
		collected := make([]report, 0, pending)
		for pending > 0 {
			rep := <-reports
			collected = append(collected, rep)
			pending--
		}
		// Process in machine order for determinism.
		sort.Slice(collected, func(a, b int) bool { return collected[a].id < collected[b].id })
		for _, rep := range collected {
			if rep.compute > roundMaxCompute {
				roundMaxCompute = rep.compute
			}
			metrics.TotalCompute += rep.compute
			metrics.ComputeByMachine[rep.id] += rep.compute
			for _, msg := range rep.sends {
				size := int64(len(msg.Payload) + MessageOverheadBytes)
				metrics.Messages++
				metrics.Bytes += size
				metrics.SentMessages[msg.From]++
				metrics.SentBytes[msg.From] += size
				deliverAt := r + 1
				if bandwidth > 0 {
					link := msg.From*k + msg.To
					start := linkCursor[link]
					if floor := int64(r) * int64(bandwidth); start < floor {
						start = floor
					}
					end := start + size
					linkCursor[link] = end
					deliverAt = int((end + int64(bandwidth) - 1) / int64(bandwidth))
				}
				inTransit[deliverAt] = append(inTransit[deliverAt], msg)
			}
			if rep.halted {
				alive[rep.id] = false
				aliveCount--
				if rep.err != nil && firstErr == nil {
					firstErr = fmt.Errorf("machine %d: %w", rep.id, rep.err)
				}
			}
		}
		metrics.CriticalCompute += roundMaxCompute
		metrics.Rounds = r

		if firstErr != nil {
			cancelAll()
			break
		}
		if aliveCount == 0 {
			break
		}

		// Deliver round r+1's messages and release the machines.
		delivered := inTransit[r+1]
		delete(inTransit, r+1)
		inboxes := make(map[int][]Message)
		for _, msg := range delivered {
			if !alive[msg.To] {
				metrics.Dangling++
				continue
			}
			inboxes[msg.To] = append(inboxes[msg.To], msg)
		}
		for i := 0; i < k; i++ {
			if alive[i] {
				machines[i].resume <- inboxes[i]
			}
		}
	}

	//knnlint:allow detsource -- commutative integer count over undelivered inboxes; order cannot affect the sum
	for _, msgs := range inTransit {
		metrics.Dangling += len(msgs)
	}
	return metrics, firstErr
}

func runProgram(m *Machine, prog Program) {
	var err error
	defer func() {
		var compute time.Duration
		if m.measure {
			//knnlint:allow detsource -- compute-time metric only: feeds Metrics reporting, never the epoch's answer
			compute = time.Since(m.computeStart)
		}
		if rec := recover(); rec != nil {
			if rec == errCancelled {
				// Engine-initiated shutdown; not a program error.
				err = nil
			} else {
				err = fmt.Errorf("panic: %v", rec)
			}
			// Sends made since the last EndRound are abandoned on
			// panic; report the halt so the engine can finish.
			m.reports <- report{id: m.id, halted: true, err: err, compute: compute}
			return
		}
		m.reports <- report{id: m.id, sends: m.pending, halted: true, err: err, compute: compute}
	}()
	if m.measure {
		//knnlint:allow detsource -- compute-time metric only: feeds Metrics reporting, never the epoch's answer
		m.computeStart = time.Now()
	}
	err = prog(m)
}
