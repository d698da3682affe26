package kmachine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"distknn/internal/xrand"
)

// ErrClosed is returned by Runtime methods after Close.
var ErrClosed = errors.New("kmachine: runtime closed")

// DefaultMaxIdleWorlds is the idle-world retention bound used when
// Config.MaxIdleWorlds is zero: enough to serve a healthy steady-state
// concurrency without letting a one-time burst pin k·burst goroutines
// forever.
const DefaultMaxIdleWorlds = 16

// Runtime is a persistent deployment of the k-machine simulator: the machine
// goroutines are spawned once and stay alive between runs, so a long-lived
// cluster serving a stream of queries pays the goroutine start-up cost only
// once instead of k spawns per query.
//
// A Runtime multiplexes any number of concurrent runs. Internally it keeps a
// pool of "worlds" — each world is one set of k resident machine goroutines
// plus the synchronous-round engine — and leases a free world to each run.
// Every run gets a fresh link-capacity timeline and its own Metrics, so
// concurrent runs are fully isolated from one another: they share nothing but
// the goroutine pool. The pool grows to the peak concurrency actually seen;
// after a burst, at most Config.MaxIdleWorlds worlds are retained for reuse
// and the rest are torn down.
//
// ExecuteSeeded and ExecutePrograms lease a world for a single run.
//
// Close shuts the resident goroutines down. It is safe to call concurrently
// with in-flight runs: those runs finish normally and their worlds are torn
// down on release.
type Runtime struct {
	cfg Config

	mu     sync.Mutex
	idle   []*world
	closed bool
}

// NewRuntime validates cfg and starts a runtime with one resident world.
// cfg.Seed is unused: every run names its own seed (ExecuteSeeded).
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmachine: k must be >= 1, got %d", cfg.K)
	}
	rt := &Runtime{cfg: cfg}
	rt.idle = append(rt.idle, newWorld(cfg.K))
	return rt, nil
}

// K returns the number of machines per run.
func (rt *Runtime) K() int { return rt.cfg.K }

// Closed reports whether Close has been called.
func (rt *Runtime) Closed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.closed
}

// ExecuteSeeded runs prog on every machine with a run-specific seed driving
// GUIDs and the machines' private random streams. Concurrent calls run in
// parallel on separate worlds.
func (rt *Runtime) ExecuteSeeded(seed uint64, prog Program) (*Metrics, error) {
	progs := make([]Program, rt.cfg.K)
	for i := range progs {
		progs[i] = prog
	}
	return rt.ExecutePrograms(seed, progs)
}

// ExecutePrograms runs progs[i] on machine i with a run-specific seed.
func (rt *Runtime) ExecutePrograms(seed uint64, progs []Program) (*Metrics, error) {
	w, err := rt.acquire()
	if err != nil {
		return nil, err
	}
	defer rt.release(w)
	return w.run(rt.cfg, seed, progs)
}

// Close tears down every idle world and marks the runtime closed. Worlds
// still leased to in-flight runs are torn down when those runs complete.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	idle := rt.idle
	rt.idle = nil
	rt.mu.Unlock()
	for _, w := range idle {
		w.shutdown()
	}
}

func (rt *Runtime) acquire() (*world, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(rt.idle); n > 0 {
		w := rt.idle[n-1]
		rt.idle = rt.idle[:n-1]
		rt.mu.Unlock()
		return w, nil
	}
	rt.mu.Unlock()
	// Spawn outside the lock: during a burst, pool growth is the moment
	// concurrency matters most, and the new world isn't shared yet.
	return newWorld(rt.cfg.K), nil
}

func (rt *Runtime) release(w *world) {
	maxIdle := rt.cfg.MaxIdleWorlds
	if maxIdle == 0 {
		maxIdle = DefaultMaxIdleWorlds
	}
	rt.mu.Lock()
	if rt.closed || (maxIdle > 0 && len(rt.idle) >= maxIdle) {
		rt.mu.Unlock()
		w.shutdown()
		return
	}
	rt.idle = append(rt.idle, w)
	rt.mu.Unlock()
}

// world is one set of k resident machine goroutines plus the synchronous
// engine. A world executes one run at a time; the Runtime's pool provides
// concurrency by leasing distinct worlds.
type world struct {
	k    int
	jobs []chan job
}

// job hands one run's per-machine environment and program to a resident
// goroutine.
type job struct {
	m    *Machine
	prog Program
}

// newWorld spawns the k resident goroutines. Each loops forever: receive a
// job, run the program to completion (normal return, error, panic, or
// engine-initiated cancellation all end in a halt report), wait for the next.
func newWorld(k int) *world {
	w := &world{k: k, jobs: make([]chan job, k)}
	for i := range w.jobs {
		ch := make(chan job)
		w.jobs[i] = ch
		go func() {
			for j := range ch {
				runProgram(j.m, j.prog)
			}
		}()
	}
	return w
}

// shutdown ends the resident goroutines. The world must be idle.
func (w *world) shutdown() {
	for _, ch := range w.jobs {
		close(ch)
	}
}

// run executes one synchronous-round run on the world's resident goroutines.
// All per-run state — machines, link timelines, metrics — is fresh, so runs
// are independent and a run replays bit-for-bit given the same seed (and
// identically to a one-shot Run with that seed).
func (w *world) run(cfg Config, seed uint64, progs []Program) (*Metrics, error) {
	k := w.k
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
			id:      i,
			k:       k,
			guid:    xrand.DeriveSeed(seed, uint64(i)+(1<<32)),
			rng:     xrand.NewStream(seed, uint64(i)),
			resume:  make(chan []Message),
			reports: reports,
			measure: cfg.MeasureCompute,
		}
	}
	for i := 0; i < k; i++ {
		w.jobs[i] <- job{m: machines[i], prog: progs[i]}
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
