package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distknn"
)

// handles are the observation points of one bring-up: metric registries for
// the frontend, the nodes and the clients, and the frontend's epoch tracer.
// The zero value observes nothing, which is how end-to-end runs are made.
type handles struct {
	frontend, node, client *distknn.Metrics
	tracer                 *distknn.Tracer
}

// traceDepth holds every epoch span of one traced window: the busiest
// workload admits a few thousand epochs a second.
const traceDepth = 65536

func newHandles() handles {
	return handles{
		frontend: distknn.NewMetrics(),
		node:     distknn.NewMetrics(),
		client:   distknn.NewMetrics(),
		tracer:   distknn.NewTracer(traceDepth),
	}
}

// cluster is one loopback deployment in this process — a frontend, four
// nodes over real TCP sockets — and the client connections that drive it.
type cluster[P any] struct {
	rcs  []*distknn.RemoteCluster[P]
	stop func() error  // shuts frontend and nodes down and waits for them
	next atomic.Uint64 // the next unissued query of the workload's stream
	// keep says which replies, by query index, are held back for the oracle.
	keep func(i uint64) bool
}

func (s *spec[P]) bringUp(seed uint64, h handles) (*cluster[P], error) {
	fopts := s.frontend
	fopts.Metrics, fopts.Trace = h.frontend, h.tracer
	c := &cluster[P]{keep: keepHead}
	var addr string
	if h.node == nil {
		srv, err := distknn.ServeTypedLocalOptions(s.pt, nodes, seed, s.shards, distknn.NodeOptions{}, fopts)
		if err != nil {
			return nil, fmt.Errorf("%s: bring-up: %w", s.name, err)
		}
		addr, c.stop = srv.Addr(), srv.Close
	} else {
		var err error
		if addr, c.stop, err = s.serveObserved(seed, fopts, h.node); err != nil {
			return nil, fmt.Errorf("%s: bring-up: %w", s.name, err)
		}
	}
	for i := 0; i < s.conns; i++ {
		rc, err := distknn.DialTypedClusterOptions(s.pt, addr, distknn.ClientOptions{Metrics: h.client})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("%s: dial: %w", s.name, err)
		}
		c.rcs = append(c.rcs, rc)
	}
	return c, nil
}

// serveObserved starts the same loopback cluster from its public parts,
// because ServeTypedLocalOptions does not hand NodeOptions.Metrics to the
// nodes it starts and the ledger needs the node registry. It returns once
// the setup epoch is over, which Leader reports by turning non-negative.
func (s *spec[P]) serveObserved(seed uint64, fopts distknn.FrontendOptions, reg *distknn.Metrics) (string, func() error, error) {
	fe, err := distknn.NewFrontendOptions("127.0.0.1:0", nodes, seed, fopts)
	if err != nil {
		return "", nil, err
	}
	exits := make(chan error, nodes+1) // one send per goroutine below
	go func() { exits <- fe.Serve() }()
	for i := 0; i < nodes; i++ {
		go func() {
			exits <- distknn.ServeTypedNode(s.pt, fe.Addr(), "127.0.0.1:0", s.shards, distknn.NodeOptions{Metrics: reg})
		}()
	}
	stop := func() error {
		first := fe.Close()
		for i := 0; i <= nodes; i++ {
			// A node that notices the frontend going before its shutdown
			// frame reports a lost session; at close that is a clean exit.
			if err := <-exits; err != nil && !errors.Is(err, distknn.ErrSessionLost) && first == nil {
				first = err
			}
		}
		return first
	}
	for deadline := time.Now().Add(30 * time.Second); fe.Leader() < 0; time.Sleep(time.Millisecond) {
		if len(exits) > 0 || time.Now().After(deadline) {
			if err := stop(); err != nil {
				return "", nil, err
			}
			return "", nil, errors.New("the cluster did not finish its setup epoch")
		}
	}
	return fe.Addr(), stop, nil
}

// close releases every client and then the cluster; the first failure wins.
func (c *cluster[P]) close() error {
	var first error
	for _, rc := range c.rcs {
		if err := rc.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.stop(); err != nil && first == nil {
		first = err
	}
	return first
}

// call issues query i of the stream and waits for its reply.
func (s *spec[P]) call(rc *distknn.RemoteCluster[P], i uint64, q P) (answer, error) {
	a := answer{idx: i, op: s.ops[i%uint64(len(s.ops))]}
	var err error
	switch {
	case a.op == opClassify:
		a.value, a.stats, err = rc.Classify(q, s.l)
	case a.op == opRegress:
		a.value, a.stats, err = rc.Regress(q, s.l)
	case s.async:
		a.items, a.stats, err = rc.KNNAsync(q, s.l).Wait()
	default:
		a.items, a.stats, err = rc.KNN(q, s.l)
	}
	if err == nil {
		err = s.shape(a)
	}
	return a, err
}

// shape is the check every reply gets while the clock runs: the right
// number of neighbours, in ascending order, ending at the reported boundary.
// The oracle does the full comparison on the kept replies afterwards.
func (s *spec[P]) shape(a answer) error {
	if a.stats == nil {
		return fmt.Errorf("query %d: reply without stats", a.idx)
	}
	if a.op != opKNN {
		return nil
	}
	if len(a.items) != s.l {
		return fmt.Errorf("query %d: %d neighbours for l=%d", a.idx, len(a.items), s.l)
	}
	for j := 1; j < len(a.items); j++ {
		if !a.items[j-1].Key.Less(a.items[j].Key) {
			return fmt.Errorf("query %d: neighbours %d and %d out of order", a.idx, j-1, j)
		}
	}
	if a.items[len(a.items)-1].Key != a.stats.Boundary {
		return fmt.Errorf("query %d: boundary is not the last neighbour", a.idx)
	}
	return nil
}

// keepHead holds back the first 32 replies of the stream and then every
// 64th, at most 64 replies from one cluster. Brute force over four million
// points takes the oracle some twenty milliseconds a reply, so a run of
// several clusters gives the later ones keepFew.
func keepHead(i uint64) bool { return i < 32 || (i%64 == 0 && i <= 32*64) }

func keepFew(i uint64) bool { return i < 4 }

// sample is one completed call, timed by the caller that made it.
type sample struct {
	idx    uint64
	doneNS int64 // completion, from the start of the drive
	latNS  int64
	ok     bool
}

// tally is what a drive's callers saw, merged.
type tally struct {
	start   time.Time
	samples []sample // in completion order per caller, not overall
	answers []answer // the kept replies
	failed  int
	errs    []error // the first few failures, for the message
	// Sums over successful replies, from QueryStats.
	iterations, survivors, fellBack int64
}

// drive runs the workload's closed loop against c for warm+d: conns x
// inflight callers, each issuing the next unissued query of the stream and
// waiting for its reply. mark, when not nil, is called once after warm,
// while the callers keep running.
func (s *spec[P]) drive(c *cluster[P], warm, d time.Duration, mark func()) *tally {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	callers := make([]tally, s.conns*s.inflight)
	start := time.Now()
	for ci := range callers {
		wg.Add(1)
		go func(t *tally, rc *distknn.RemoteCluster[P]) {
			defer wg.Done()
			for !stop.Load() {
				i := c.next.Add(1) - 1
				q := s.query(i)
				t0 := time.Now()
				a, err := s.call(rc, i, q)
				t1 := time.Now()
				t.samples = append(t.samples, sample{idx: i, doneNS: int64(t1.Sub(start)), latNS: int64(t1.Sub(t0)), ok: err == nil})
				if err != nil {
					t.failed++
					if len(t.errs) < 3 {
						t.errs = append(t.errs, err)
					}
					continue
				}
				t.iterations += int64(a.stats.Iterations)
				t.survivors += a.stats.Survivors
				if a.stats.FellBack {
					t.fellBack++
				}
				if c.keep(i) {
					t.answers = append(t.answers, a)
				}
			}
		}(&callers[ci], c.rcs[ci%s.conns])
	}
	time.Sleep(warm)
	if mark != nil {
		mark()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()

	all := &tally{start: start}
	for i := range callers {
		t := &callers[i]
		all.samples = append(all.samples, t.samples...)
		all.answers = append(all.answers, t.answers...)
		all.failed += t.failed
		all.errs = append(all.errs, t.errs...)
		all.iterations += t.iterations
		all.survivors += t.survivors
		all.fellBack += t.fellBack
	}
	return all
}

// verify checks every kept reply against the oracle and returns the
// mismatches.
func (s *spec[P]) verify(o *oracle[P], answers []answer) (mismatches []error) {
	for _, a := range answers {
		if err := o.check(s.query(a.idx), s.l, a); err != nil {
			mismatches = append(mismatches, err)
		}
	}
	return mismatches
}
