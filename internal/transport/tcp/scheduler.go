package tcp

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"distknn/internal/core"
	"distknn/internal/keys"
	"distknn/internal/metricindex"
	"distknn/internal/obs"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// This file is the frontend's epoch scheduler: the layer between the
// client-serving goroutines and the nodes. Every query runs through one
// plan (run): contact set → per-seat sub-batch → dispatch wave → collect →
// fold.
//
// A wave is one epoch: one ordinal, one dispatch frame per contacted seat,
// one result frame back from each, carrying the seat's local top-ℓ for
// every point it was sent. The plan says which seats a wave contacts and
// which points of the batch each seat is sent. When the geometry cannot
// bound the query (no Pruner, a seat without a metric summary, a point the
// geometry rejects) it is a single wave that admits every seat for the
// whole batch, unbounded: full scatter, the admission that admits everyone.
// Otherwise (FrontendOptions.Pruner) it is up to two waves: each point
// first probes its nearest shard, then reaches only the shards its
// admission ball can still intersect, under the probe's bound. Either way
// the caller holds one window slot for the whole query, dispatchWave is the
// only code that consumes an ordinal and writes dispatch frames, the
// per-seat results are filed under the batch positions they answer, and one
// fold selects the answer from them — neighbors, boundary and the
// Classify/Regress label alike. The frontend is the only party that
// selects: this is the paper's SimpleKNN with the frontend as its leader.
//
// Pipelining. Up to Window queries are in flight at once. A wave takes its
// ordinal under the frontend lock, f.mu (which guards every piece of
// scheduler state too), and registers a collation job before its first
// write; the per-node control pumps push each arriving result or error
// frame to its job by ordinal, so replies complete out of order without any
// wave waiting on an unrelated one. Admission beyond the window blocks
// (backpressure on the client connection) until a slot frees. Answers are
// bit-identical to serialized execution: the fold is exact.
//
// Server-side batching. With ServerBatch enabled, concurrently arriving
// single-point queries that agree on (op, ℓ) coalesce into one batch query
// (answer admits only the session's point tag, so the tag always agrees): a
// query joins the open bucket for its key, and the bucket flushes when it
// reaches maxServerBatch points (or the most whose results fit one frame)
// or after Linger — whichever comes first — so many small clients share one
// dispatch frame per seat. The flushed bucket runs through the same
// pipeline as any client batch; each coalesced query receives its own
// result, and the batch-wide cost fields (rounds and messages) are reported
// to every participant.
//
// Churn interaction. A seat lost mid-flight fails exactly the waves that
// were dispatched to it — each affected job completes with a retryable
// degraded reply — while queued and coalescing queries never consume an
// ordinal: they fail fast at admission with the usual degraded error until
// the seat heals. A full-scatter wave needs every seat; a pruned wave only
// the seats it contacts, so an absent seat whose shard the admission test
// prunes does not fail the query. Close fails every queued and in-flight
// wave with a retryable error instead of racing the control pumps; a bucket
// still open ends through its own flush, at most Linger later, whose
// execute sees the frontend closed and fails the same way.

// dispatchTimeout bounds one dispatch frame's control-connection write.
// The frontend lock is held across the write phase, so the deadline is
// what keeps a wedged node (alive but not draining its socket) from
// stalling every client — admission, collation of other epochs, and the
// EvictNode that would remove it — for long: a healthy node's buffer takes
// a dispatch instantly, and even a MaxBatch-sized frame crosses a LAN well
// inside this bound.
var dispatchTimeout = 5 * time.Second

// maxWindow caps FrontendOptions.Window. Every query in the window may hold
// a dispatch on every node — a goroutine and a pooled frame buffer each —
// so the cap bounds what a node holds for the frontend at once.
const maxWindow = 64

// maxServerBatch caps a coalesced batch: a bucket that reaches it flushes
// immediately instead of lingering.
const maxServerBatch = 64

// Pruner gives the frontend the metric-space geometry of the served point
// type, over wire encodings: the true distance between an encoded query
// point and an encoded shard centroid, and the true distance an encoded
// distance key represents. The distances must satisfy the triangle
// inequality — the admission test is only sound for true metrics.
// metricindex.WirePruner implements this for any served point type.
type Pruner interface {
	CenterDist(query, center []byte) (float64, error)
	KeyDist(dist uint64) float64
}

// FrontendOptions tunes the frontend's epoch scheduler.
type FrontendOptions struct {
	// Window is the maximum number of queries in flight at once. 1
	// serializes queries; the default is 8 and values are capped at 64
	// (what a node may hold in dispatches for the frontend at once).
	Window int
	// ServerBatch enables transparent server-side batching: concurrently
	// arriving single-point queries with the same (op, ℓ, tag) coalesce
	// into one batch query. Off by default — coalescing trades up to
	// Linger of latency for throughput.
	ServerBatch bool
	// Linger bounds how long an open coalescing bucket waits for more
	// queries before it flushes (default 500µs). Only meaningful with
	// ServerBatch.
	Linger time.Duration
	// Pruner enables metric-index pruned dispatch for every query shape —
	// KNN, Classify and Regress, single points and batches alike. Each
	// point of a query first probes its nearest shard for an upper bound
	// on its ℓ-th neighbor distance, and a second wave then sends each
	// remaining shard only the sub-batch of points whose admission ball can
	// intersect it — shards contacted by zero points skipped entirely,
	// answers bit-identical to full scatter (both plans end in the same
	// frontend fold over the winner shares). Queries the path cannot bound
	// (any query while a seat lacks a metric summary, or whose geometry
	// rejects a point) run as full-scatter waves. Nil disables pruning.
	Pruner Pruner
	// Metrics receives the frontend's runtime counters, gauges and
	// histograms (see metrics.go for the instrument names). Nil binds the
	// instrumentation to a private registry: the recording path is
	// identical either way, so exposing metrics cannot perturb serving.
	Metrics *obs.Registry
	// Trace collects per-epoch spans (admission → dispatch → collation →
	// reply, with seat-level arrival offsets) into the tracer's ring for
	// /trace/recent. Nil disables span collection entirely.
	Trace *obs.Tracer
}

func (o FrontendOptions) withDefaults() FrontendOptions {
	if o.Window < 1 {
		o.Window = 8
	}
	if o.Window > maxWindow {
		o.Window = maxWindow
	}
	if o.Linger <= 0 {
		o.Linger = 500 * time.Microsecond
	}
	return o
}

// scheduler pipelines query waves over the control connections and
// coalesces single queries into batch queries. Its mutable state — the window count and its
// condition variable, the in-flight jobs and the open buckets — is guarded
// by f.mu.
type scheduler struct {
	f        *Frontend
	window   int
	linger   time.Duration
	batching bool

	fm *feMetrics  // always non-nil (private registry when unconfigured)
	tr *obs.Tracer // nil disables spans; all span methods are nil-safe

	cond     *sync.Cond // on f.mu; admission waits here for a free window slot
	count    int        // queries holding a window slot
	inflight map[uint64]*epochJob
	buckets  map[bucketKey]*bucket
}

func newScheduler(f *Frontend, opts FrontendOptions) *scheduler {
	opts = opts.withDefaults()
	sched := &scheduler{
		f:        f,
		window:   opts.Window,
		linger:   opts.Linger,
		batching: opts.ServerBatch,
		fm:       newFeMetrics(opts.Metrics),
		tr:       opts.Trace,
		inflight: make(map[uint64]*epochJob),
		buckets:  make(map[bucketKey]*bucket),
	}
	sched.cond = sync.NewCond(&f.mu)
	return sched
}

// epochJob is one in-flight wave's collation state: which (seat, connection
// incarnation) pairs still owe a frame, each seat's result so far, and how
// the wave ends. All fields are guarded by f.mu until done closes and are
// immutable after.
type epochJob struct {
	epoch uint64
	// subs[id] is the batch positions of the points seat id was sent, in
	// frame order — the seat's result must carry one entry per position. On
	// a full-scatter wave every seat's list is the whole batch.
	subs [][]int
	// l is the query's ℓ and bounds[pi] batch point pi's ceiling on a
	// gather wave (nil on every other wave): deliver holds each result
	// to them.
	l      int
	bounds []keys.Key
	// shares[id] is seat id's result (zero until it reports, and for a seat
	// the wave did not contact).
	shares []wire.NodeResult

	expect    []uint64 // per node id: expected gen+1, or 0 once accounted
	expectN   int      // seats still owing a frame
	lost      []int    // seats lost mid-epoch
	lostCause error
	errMsg    string // the lowest-id failed seat's report, so the message is deterministic
	errID     int
	// rep is the wave's outcome: the failure, or zero once every seat
	// answered.
	rep  wire.Reply
	done chan struct{}
	span *obs.Span // epoch trace span; nil when tracing is off
}

// expectSet records that connection incarnation gen of seat id owes this
// epoch a frame.
func (job *epochJob) expectSet(id int, gen uint64) {
	if job.expect[id] == 0 {
		job.expectN++
	}
	job.expect[id] = gen + 1
}

// expectMatch reports whether seat id still owes a frame from exactly
// incarnation gen.
func (job *epochJob) expectMatch(id int, gen uint64) bool {
	return job.expect[id] == gen+1
}

// expectClear marks seat id as accounted for.
func (job *epochJob) expectClear(id int) {
	if job.expect[id] != 0 {
		job.expect[id] = 0
		job.expectN--
	}
}

// fail records the loss of one dispatched-to seat.
func (job *epochJob) fail(id int, cause error) {
	job.lost = append(job.lost, id)
	if job.lostCause == nil {
		job.lostCause = cause
	}
}

// collect files a finished wave's per-seat results under the batch
// positions they answer: got[pi][id] becomes seat id's winner list for point
// pi. A seat's result entries map by position through the sub-batch the
// wave sent it (deliver has already verified the counts match); a (point,
// seat) pair is dispatched at most once per query, so nothing is
// overwritten.
func (job *epochJob) collect(got [][][]points.Item) {
	for id, nr := range job.shares {
		for si, qr := range nr.Queries {
			got[job.subs[id][si]][id] = qr.Winners
		}
	}
}

// checkWinners holds seat id's result to what the fold assumes of a
// winner list: strictly ascending keys (mergeTop merges them as sorted
// runs), at most ℓ of them, and — on a gather wave — every key strictly
// below its point's bound. Ascending order makes the last key the only one
// the bound needs to check.
func (job *epochJob) checkWinners(id int, nr wire.NodeResult) error {
	for si, qr := range nr.Queries {
		w := qr.Winners
		if len(w) > job.l {
			return fmt.Errorf("%d winners at ℓ = %d", len(w), job.l)
		}
		for i := 1; i < len(w); i++ {
			if !w[i-1].Key.Less(w[i].Key) {
				return fmt.Errorf("winners not strictly ascending at %d: %v then %v", i, w[i-1].Key, w[i].Key)
			}
		}
		if job.bounds != nil && len(w) > 0 {
			if bound := job.bounds[job.subs[id][si]]; !w[len(w)-1].Key.Less(bound) {
				return fmt.Errorf("winner %v not below the bound %v", w[len(w)-1].Key, bound)
			}
		}
	}
	return nil
}

// newGather allocates the per-point, per-seat winner lists collect fills.
func newGather(n, k int) [][][]points.Item {
	got, lists := make([][][]points.Item, n), make([][]points.Item, n*k)
	for pi := range got {
		got[pi] = lists[pi*k : (pi+1)*k : (pi+1)*k]
	}
	return got
}

// mergeTop merges one point's per-seat winner lists — each strictly
// ascending, as checkWinners holds them — into the first l keys of their
// union, in ascending order, by a k-way merge that stops at l. shares[id]
// is the prefix of seat id's list the merge consumed: the seat's share of
// the global top-l, in ascending key order — the order core's folds sum a
// share in. Keys are unique (distance, ID) pairs, so the order is total and
// the merge has exactly one outcome regardless of which seat contributed
// which item.
func mergeTop(lists [][]points.Item, l int) (top []points.Item, shares [][]points.Item) {
	total := 0
	for _, items := range lists {
		total += len(items)
	}
	top = make([]points.Item, 0, min(total, l))
	next := make([]int, len(lists)) // per seat, the first item not yet merged
	for len(top) < cap(top) {
		best := -1
		for id, items := range lists {
			if next[id] < len(items) && (best < 0 || items[next[id]].Key.Less(lists[best][next[best]].Key)) {
				best = id
			}
		}
		top = append(top, lists[best][next[best]])
		next[best]++
	}
	shares = make([][]points.Item, len(lists))
	for id, items := range lists {
		shares[id] = items[:next[id]]
	}
	return top, shares
}

// closingReply is the retryable failure every queued, coalescing and
// in-flight query receives when the frontend shuts down mid-flight.
func closingReply() wire.Reply {
	return wire.Reply{Err: "frontend shutting down; query aborted (safe to retry)", Degraded: true}
}

// submit answers one validated client query through the scheduler. Single
// queries on a batching frontend coalesce first — the shared bucket then
// runs like any client batch, so server-side batching and pruning compose
// instead of excluding each other. An answered query's cost fields are
// added to the frontend_mesh_* counters here, once per client query, so
// each counter is the Σ of the client-observed field.
func (sched *scheduler) submit(q wire.Query) wire.Reply {
	// start feeds only the latency histogram below — an obs sink — which
	// is what keeps detsource satisfied without an allow directive.
	start := time.Now()
	sched.fm.queries.Inc()
	var rep wire.Reply
	if sched.batching && len(q.Points) == 1 {
		rep = sched.coalesce(q)
	} else {
		rep = sched.execute(q)
	}
	sched.fm.latency.Observe(int64(time.Since(start)))
	switch {
	case rep.Err == "":
		sched.fm.meshRounds.Add(int64(rep.Rounds))
		sched.fm.meshMessages.Add(rep.Messages)
	case rep.Degraded:
		sched.fm.repliesDegr.Inc()
	default:
		sched.fm.repliesFail.Inc()
	}
	return rep
}

// execute runs one (possibly batched) query under one window slot. The
// slot covers every wave of the query — the probe and the gather of a
// pruned query are halves of one answer, and parking the gather behind
// fresh admissions could deadlock a full window of half-done queries.
func (sched *scheduler) execute(q wire.Query) wire.Reply {
	dist, radius := sched.geometry(q)
	f := sched.f
	f.mu.Lock()
	for {
		if f.closed.Load() {
			f.mu.Unlock()
			return closingReply()
		}
		if dist == nil {
			// Degraded fast-fail before admission: a full-scatter wave needs
			// every seat, so a probe during an outage answers immediately —
			// even while the window is full of doomed epochs — and consumes
			// neither an ordinal nor a window slot.
			if rep, ok := f.degradedLocked(f.slots); !ok {
				f.mu.Unlock()
				return rep
			}
		}
		if sched.count < sched.window {
			break
		}
		sched.cond.Wait()
	}
	sched.count++
	sched.fm.occupancy.Observe(int64(sched.count))
	sched.fm.inflight.Set(int64(sched.count))
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		sched.count--
		sched.fm.inflight.Set(int64(sched.count))
		sched.cond.Broadcast()
		f.mu.Unlock()
	}()
	return sched.run(q, dist, radius)
}

// reply folds the collected lists into the reply of a query that took
// waves dispatch waves and contacts per-point seat contacts. Rounds counts
// the waves and Messages the contacts (Σ over the batch of the seats each
// point was sent to, so Messages/len(Points) is the contacted-nodes-per-query
// figure).
func (sched *scheduler) reply(q wire.Query, got [][][]points.Item, waves int, contacts int64) wire.Reply {
	results, err := fold(q, got)
	if err != nil {
		return wire.Reply{Err: fmt.Sprintf("query failed: %v", err)}
	}
	return wire.Reply{Rounds: waves, Messages: contacts, Results: results}
}

// fold answers every point of q from its per-seat winner lists — the one
// fold every query ends in. Per point it merges the seats' lists (each a
// seat's local top-ℓ, below the point's bound on a gather wave) in key
// order and stops at ℓ: the cut selects. The ℓ-th key is the boundary,
// and a Classify or Regress answer is core's fold over each seat's items at
// or below it; Regress adds the seats' sums in ascending seat order.
func fold(q wire.Query, got [][][]points.Item) ([]wire.QueryReply, error) {
	results := make([]wire.QueryReply, len(got))
	for pi, lists := range got {
		items, shares := mergeTop(lists, q.L)
		if len(items) == 0 {
			return nil, fmt.Errorf("no winners for point %d", pi)
		}
		qr := &results[pi]
		qr.Boundary = items[len(items)-1].Key
		var err error
		switch q.Op {
		case wire.OpKNN:
			qr.Items = items
		case wire.OpClassify:
			qr.Value, err = core.ClassifyShares(shares)
		case wire.OpRegress:
			qr.Value, err = core.RegressShares(shares)
		}
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runWave dispatches one wave and waits for its collation. It returns a nil
// job (and the reply to send instead) when the wave could not run or did
// not succeed.
func (sched *scheduler) runWave(q wire.Query, subs [][]int, bounds []keys.Key, pruned bool) (*epochJob, wire.Reply) {
	job, rep := sched.dispatchWave(q, subs, bounds, pruned)
	if job == nil {
		return nil, rep
	}
	<-job.done
	job.span.Finish()
	if job.rep.Err != "" {
		return nil, job.rep
	}
	return job, wire.Reply{}
}

// dispatchWave assigns the epoch ordinal, ships one wave of q and registers
// its collation job. Seat id is sent exactly the sub-batch subs[id] of q's
// points, and a seat whose sub-batch is empty is not contacted; bounds,
// when not nil, holds one ceiling per batch point, and each frame carries
// its points' ceilings. pruned marks the wave's trace span Direct: a wave
// of a query the geometry bounds. Every target that receives the whole batch — all of them on
// a full-scatter wave, and always for a single-point query — shares one
// encode-once frame; a strict sub-batch gets a frame of its own. It
// returns a nil job (and the reply to send instead) when the wave cannot
// run: the frontend is closing, or a seat the wave contacts is absent — any
// other absent seat is invisible to the wave, because the admission test
// already proved its shard irrelevant. The
// job is registered before the first write, so a result can never arrive
// unclaimed. f.mu is held across the writes, which keeps every seat's conn
// and gen consistent with the expectation set, and keeps Close from
// sweeping the jobs until the wave is registered; the cost is that
// collation of other epochs waits for the writes too — at most
// dispatchTimeout, when a seat stopped draining its connection.
func (sched *scheduler) dispatchWave(q wire.Query, subs [][]int, bounds []keys.Key, pruned bool) (*epochJob, wire.Reply) {
	f := sched.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return nil, closingReply()
	}
	targets := make([]*feSlot, 0, len(f.slots))
	for _, s := range f.slots {
		if len(subs[s.id]) > 0 {
			targets = append(targets, s)
		}
	}
	if rep, ok := f.degradedLocked(targets); !ok {
		// No epoch is consumed: the query never ran, so the seed schedule
		// of the successful query stream is unchanged by the outage.
		return nil, rep
	}
	f.epoch++
	epoch := f.epoch
	// Frames are built in pooled writers, which stay checked out until the
	// writes are done because the framed bytes alias their buffers — and
	// are read-only across the concurrent writes below.
	var writers []*wire.Writer
	defer func() {
		for _, dw := range writers {
			wire.PutWriter(dw)
		}
	}()
	encode := func(sq wire.Query, bs []keys.Key) ([]byte, error) {
		dw := wire.GetWriter()
		writers = append(writers, dw)
		dw.BeginFrame()
		wire.AppendDispatchDirect(dw, epoch, sq, bs)
		return dw.FinishFrame()
	}
	frames := make([][]byte, len(targets))
	var whole []byte
	var pts [][]byte
	var bs []keys.Key
	for i, s := range targets {
		var ferr error
		switch {
		case len(subs[s.id]) < len(q.Points):
			pts, bs = pts[:0], bs[:0]
			for _, pi := range subs[s.id] {
				pts = append(pts, q.Points[pi])
				if bounds != nil {
					bs = append(bs, bounds[pi])
				}
			}
			frames[i], ferr = encode(wire.Query{Op: q.Op, L: q.L, Tag: q.Tag, Points: pts}, bs)
		case whole == nil:
			whole, ferr = encode(q, bounds)
			frames[i] = whole
		default:
			frames[i] = whole
		}
		if ferr != nil {
			return nil, wire.Reply{Err: fmt.Sprintf("dispatch too large: %v", ferr)}
		}
	}
	sched.fm.epochsAdmitted.Inc()
	job := &epochJob{
		epoch:  epoch,
		subs:   subs,
		l:      q.L,
		bounds: bounds,
		shares: make([]wire.NodeResult, f.k),
		expect: make([]uint64, f.k),
		done:   make(chan struct{}),
		span:   sched.tr.Begin(epoch, q.Op, len(q.Points), pruned),
	}
	// Register the job with its full expectation set before any write, so
	// a node answering instantly finds its job.
	sched.inflight[epoch] = job
	for _, s := range targets {
		job.expectSet(s.id, s.gen)
	}
	// The writes are bounded: a target that stopped draining its control
	// connection (partitioned, stopped) must fail its write — and lose its
	// seat — within one deadline rather than wedge the whole frontend,
	// including the EvictNode that would remove it. A one-target wave — the
	// common case for a pruned single query — writes inline, skipping the
	// goroutine fan-out and its allocations.
	writeErrs := make([]error, len(targets))
	if len(targets) == 1 {
		conn := targets[0].conn
		conn.SetWriteDeadline(time.Now().Add(dispatchTimeout))
		//knnlint:allow lockio -- deadline-bounded inline dispatch write; f.mu keeps the seat's conn/gen stable across it
		_, writeErrs[0] = conn.Write(frames[0])
	} else {
		var writes sync.WaitGroup
		for i, s := range targets {
			writes.Add(1)
			go func(i int, conn net.Conn) {
				defer writes.Done()
				conn.SetWriteDeadline(time.Now().Add(dispatchTimeout))
				_, writeErrs[i] = conn.Write(frames[i])
			}(i, s.conn)
		}
		writes.Wait()
	}
	job.span.MarkDispatched()
	for i, s := range targets {
		if writeErrs[i] == nil {
			s.conn.SetWriteDeadline(time.Time{})
			continue
		}
		// Retiring the seat fails this wave like any other epoch on it.
		f.retireLocked(s, s.gen, fmt.Errorf("dispatch to node %d: %v", s.id, writeErrs[i]))
	}
	return job, wire.Reply{}
}

// deliver routes one control frame from connection incarnation gen of seat
// s to its epoch's job. The frame is decoded before f.mu is taken —
// decoding reads no shared state — so the critical section is bookkeeping
// only. Frames for unknown epochs are leftovers of completed or failed
// epochs and are dropped; a malformed frame retires seat s once the job is
// settled.
func (sched *scheduler) deliver(s *feSlot, gen uint64, payload []byte) {
	f, id := sched.f, s.id
	// Peek the kind and epoch ordinal on a throwaway reader (a failed decode
	// zeroes the frame, epoch included); the decoders below expect the
	// payload with only the kind byte consumed.
	peek := wire.NewReader(payload)
	kind, epoch := peek.Kind(), peek.Varint()
	bad := peek.Err() != nil
	r := wire.NewReader(payload)
	r.U8()
	var nr wire.NodeResult
	var ne wire.NodeError
	var derr error
	switch kind {
	case wire.KindResult:
		nr, derr = wire.DecodeNodeResult(r)
	case wire.KindError:
		ne, derr = wire.DecodeNodeError(r)
	default:
		bad = true
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if bad {
		f.retireLocked(s, gen, fmt.Errorf("node %d sent unexpected control kind %d", id, kind))
		return
	}
	job := sched.inflight[epoch]
	if job == nil || !job.expectMatch(id, gen) {
		return // a leftover of a finished epoch, a stale incarnation, or a repeat
	}
	job.expectClear(id)
	// malformed retires seat s after the job is finished, so the job does
	// not count the seat twice.
	var malformed error
	switch kind {
	case wire.KindResult:
		// The node's result must cover exactly the points it was sent — a
		// sub-batch on a pruned wave — and hold winner lists the fold can
		// read.
		if derr == nil && (nr.Node != id || len(nr.Queries) != len(job.subs[id])) {
			derr = fmt.Errorf("result of node %d for %d points", nr.Node, len(nr.Queries))
		}
		if derr == nil {
			derr = job.checkWinners(id, nr)
		}
		if derr != nil {
			malformed = fmt.Errorf("node %d sent a malformed result (%v)", id, derr)
			job.fail(id, malformed)
			break
		}
		job.shares[id] = nr
		job.span.MarkSeat(id)
	case wire.KindError:
		if derr != nil {
			malformed = fmt.Errorf("node %d sent a malformed error", id)
			job.fail(id, malformed)
			break
		}
		if job.errMsg == "" || id < job.errID {
			job.errMsg, job.errID = fmt.Sprintf("node %d: %s", id, ne.Msg), id
		}
	default:
		// Unreachable: any other kind was retired above.
	}
	sched.maybeFinishLocked(job)
	if malformed != nil {
		f.retireLocked(s, gen, malformed)
	}
}

// maybeFinishLocked completes the job once every dispatched-to seat has
// been accounted for — or immediately when any seat was lost: the wave is
// doomed as a unit, so the reply does not wait for the other seats. A lost
// seat wins (retryable degraded reply), then a node's failure report, then
// success (the waiter folds the collected shares). A finished job leaves
// sched.inflight, the only place callers find jobs, so late frames for it
// are dropped. The window slot is the query's, not the wave's: its owner
// (execute) returns it. Caller holds f.mu.
func (sched *scheduler) maybeFinishLocked(job *epochJob) {
	if job.expectN > 0 && len(job.lost) == 0 {
		return
	}
	switch {
	case len(job.lost) > 0:
		// The epoch was consumed but the batch failed as a unit; the
		// client may retry it (idempotent reads) once the seat heals.
		sort.Ints(job.lost)
		msg := fmt.Sprintf("cluster degraded (%d of %d nodes): lost node(s) %v",
			sched.f.k-len(job.lost), sched.f.k, job.lost)
		if job.lostCause != nil {
			msg += fmt.Sprintf(" (%v)", job.lostCause)
		}
		job.rep = wire.Reply{Err: msg, Degraded: true}
		sched.fm.epochsLost.Inc()
	case job.errMsg != "":
		job.rep = wire.Reply{Err: fmt.Sprintf("query failed: %s", job.errMsg)}
		sched.fm.epochsFailed.Inc()
	}
	job.span.MarkCollated(job.rep.Err, job.rep.Degraded)
	delete(sched.inflight, job.epoch)
	close(job.done)
}

// shutdownLocked fails every queued and in-flight query with a retryable
// closing reply; f.closed, already set, refuses later admissions. In-flight
// epochs may still complete on the nodes; their late results are dropped.
// A coalescing bucket still open is left to its linger timer: its flush
// runs execute, which sees f.closed and fails the bucket the same way. Close
// runs it once, holding f.mu.
func (sched *scheduler) shutdownLocked() {
	//knnlint:allow detsource -- shutdown fanout: every epoch gets the identical closing reply, order unobservable
	for _, job := range sched.inflight {
		job.rep = closingReply()
		job.span.MarkCollated(job.rep.Err, true)
		close(job.done)
	}
	sched.inflight = make(map[uint64]*epochJob)
	sched.cond.Broadcast()
}

// ---------------------------------------------------------------------------
// Server-side batching
// ---------------------------------------------------------------------------

// bucketKey identifies queries that may share one batch: a wire.Query
// carries a single (op, ℓ, tag) for its whole batch, and every query that
// reaches the scheduler carries the session's tag.
type bucketKey struct {
	op uint8
	l  int
}

// bucket is one open coalescing batch: the accumulating query, the linger
// timer that flushes a partial batch, and the rendezvous the waiters share.
// The points slice is guarded by f.mu until the bucket leaves the map; rep
// and solo are written exactly once, before done closes.
type bucket struct {
	q      wire.Query
	timer  *time.Timer
	done   chan struct{}
	rep    wire.Reply
	solo   []wire.Reply  // per-query fallback replies; see runBucket
	opened obs.Stopwatch // bucket open instant, for the linger histogram
}

// coalesce joins (or opens) the bucket for q's key and waits for the shared
// batch query's outcome. The joiner that fills the bucket runs the epoch
// itself; otherwise the linger timer flushes the partial batch.
func (sched *scheduler) coalesce(q wire.Query) wire.Reply {
	// Degraded fast-fail before joining a bucket: during an outage a
	// query answers immediately instead of lingering in a batch that is
	// doomed to the same degraded reply. A prunable session skips the fast
	// fail — its buckets run as pruned waves, which only need the
	// seats the queries' admission balls reach, so an absent seat does not
	// doom the bucket.
	key := bucketKey{op: q.Op, l: q.L}
	f := sched.f
	f.mu.Lock()
	if rep, ok := f.degradedLocked(f.slots); !ok && f.radius == nil {
		f.mu.Unlock()
		return rep
	}
	if f.closed.Load() {
		f.mu.Unlock()
		return closingReply()
	}
	b := sched.buckets[key]
	if b == nil {
		b = &bucket{
			q:      wire.Query{Op: q.Op, L: q.L, Tag: q.Tag},
			done:   make(chan struct{}),
			opened: obs.StartTimer(),
		}
		sched.buckets[key] = b
		b.timer = time.AfterFunc(sched.linger, func() { sched.flush(key, b) })
	}
	sched.fm.coalesced.Inc()
	idx := len(b.q.Points)
	b.q.Points = append(b.q.Points, q.Points[0])
	// A bucket is full at maxServerBatch points, or sooner when one more
	// point's results would not fit the frame the batch answers in.
	full := len(b.q.Points) >= maxServerBatch || !wire.ItemsFit(len(b.q.Points)+1, q.L)
	if full {
		delete(sched.buckets, key)
		b.timer.Stop()
	}
	f.mu.Unlock()
	if full {
		sched.runBucket(b)
	} else {
		<-b.done
	}
	return bucketReply(b, idx)
}

// flush runs a lingered partial bucket. A bucket no longer in the map was
// already flushed full; the timer's flush stands down.
func (sched *scheduler) flush(key bucketKey, b *bucket) {
	sched.f.mu.Lock()
	if sched.buckets[key] != b {
		sched.f.mu.Unlock()
		return
	}
	delete(sched.buckets, key)
	sched.f.mu.Unlock()
	sched.runBucket(b)
}

// runBucket executes the coalesced batch query and publishes its outcome.
// A batch fails as a unit, but a coalesced batch's participants are
// strangers — a client-chosen KNNBatch accepts shared fate, a coalesced
// single query must not inherit another client's bad point. So a node's
// failure report for the shared batch (not churn: a degraded failure is
// already retryable for everyone) falls back to re-running each
// participant's query alone, isolating the error to the offender.
func (sched *scheduler) runBucket(b *bucket) {
	sched.fm.batchSize.Observe(int64(len(b.q.Points)))
	sched.fm.linger.ObserveSince(b.opened)
	rep := sched.execute(b.q)
	if rep.Err != "" && !rep.Degraded && len(b.q.Points) > 1 {
		b.solo = make([]wire.Reply, len(b.q.Points))
		for i, p := range b.q.Points {
			b.solo[i] = sched.execute(wire.Query{Op: b.q.Op, L: b.q.L, Tag: b.q.Tag, Points: [][]byte{p}})
		}
	}
	b.rep = rep
	close(b.done)
}

// bucketReply extracts one coalesced query's share of the shared batch
// outcome: its solo fallback reply if the shared batch failed, else its
// slice of the batch reply — with the batch-wide cost fields, which
// describe the shared waves, reported to every participant.
func bucketReply(b *bucket, idx int) wire.Reply {
	if b.solo != nil {
		return b.solo[idx]
	}
	if b.rep.Err != "" {
		return b.rep
	}
	return wire.Reply{
		Rounds:   b.rep.Rounds,
		Messages: b.rep.Messages,
		Results:  []wire.QueryReply{b.rep.Results[idx]},
	}
}

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

// geometry returns what bounds q, when anything does: dist[id][pi], the true
// distance from batch point pi to shard id's centroid, and each shard's
// radius. It returns nils — q takes full scatter — unless the frontend
// pinned a geometry at ready (captureGeometryLocked: a Pruner is configured
// and every seat reported a metric summary) and it can speak for every
// point of the batch; every query shape rides it — KNN, Classify and
// Regress, single points and whole batches alike. The pinned geometry never
// changes after ready, so it is read without the lock.
func (sched *scheduler) geometry(q wire.Query) (dist [][]float64, radius []float64) {
	f := sched.f
	if f.radius == nil {
		return nil, nil
	}
	dist = make([][]float64, f.k)
	for id, center := range f.center {
		dist[id] = make([]float64, len(q.Points))
		for pi, p := range q.Points {
			d, err := f.pruner.CenterDist(p, center)
			if err != nil {
				// The geometry cannot speak for this point (e.g. a dimension
				// mismatch); full scatter runs the node-side validation and
				// reports its error.
				return nil, nil
			}
			dist[id][pi] = d
		}
	}
	return dist, f.radius
}

// run answers q by the one plan: one or two waves, then one fold.
//
// Without geometry (dist nil) wave 1 sends every seat the whole batch,
// unbounded — full scatter — and is the only wave: each seat returns its
// local top-ℓ and the fold selects.
//
// With geometry, wave 1 sends every point to its nearest present shard (the
// probe); the probe's ℓ-th key is the point's bound, and it bounds the
// point's global ℓ-th neighbor from above. Wave 2 sends each shard exactly
// the sub-batch of points whose admission ball can still intersect its
// centroid ball (metricindex.AdmitSub) — a shard admitted by zero points is
// skipped entirely — with each point's bound, and the shard returns only
// its keys strictly below it. Keys are unique (distance, ID) pairs and the
// probe shard alone holds ℓ keys at or below the bound, so every global
// top-ℓ key is in the probe's list or is another shard's key below the
// bound: the merged lists provably contain each point's global top-ℓ
// (metricindex.Admit), and the fold selects what full scatter selects. Its
// first ℓ keys are the answer, and each seat's items at or below the ℓ-th
// key — the boundary, never above the bound — are that seat's share of the
// global top-ℓ (a pruned seat holds no global winner, so its share is empty
// either way): the same shares, hence the same Classify/Regress fold,
// bit-identical by construction.
//
// Rounds counts the waves (1, or 2 when a pruned query gathers) and
// Messages the per-point seat contacts — k × points under full scatter (see
// reply).
func (sched *scheduler) run(q wire.Query, dist [][]float64, radius []float64) wire.Reply {
	f := sched.f
	n := len(q.Points)
	pruned := dist != nil

	// Wave 1: full scatter sends every seat the whole batch; a pruned query
	// sends each point to the present seat nearest it (ties toward the
	// lower id). contacted[id][pi] records that point pi was probed at seat
	// id, so wave 2's admission skips the pair; nil until seat id is
	// probed by any point.
	wave1 := make([][]int, f.k)
	var probe []int
	var contacted [][]bool
	if !pruned {
		all := make([]int, n)
		for pi := range all {
			all[pi] = pi
		}
		for id := range wave1 {
			wave1[id] = all
		}
	} else {
		f.mu.Lock()
		var present []int
		for _, s := range f.slots {
			if s.present {
				present = append(present, s.id)
			}
		}
		if len(present) == 0 {
			rep, _ := f.degradedLocked(f.slots)
			f.mu.Unlock()
			return rep
		}
		f.mu.Unlock()
		probe = make([]int, n)
		contacted = make([][]bool, f.k)
		for pi := 0; pi < n; pi++ {
			best := present[0]
			for _, id := range present[1:] {
				if dist[id][pi] < dist[best][pi] {
					best = id
				}
			}
			if contacted[best] == nil {
				contacted[best] = make([]bool, n)
			}
			contacted[best][pi] = true
			wave1[best] = append(wave1[best], pi)
			probe[pi] = best
		}
	}
	got := newGather(n, f.k)
	job, rep := sched.runWave(q, wave1, nil, pruned)
	if job == nil {
		return rep
	}
	job.collect(got)

	// Wave 2, only with geometry: each shard gets the sub-batch of points
	// whose ℓ-NN ball can intersect its centroid ball, and returns for each
	// only its keys strictly below the point's bound. A full probe list's
	// last key — its ℓ-th, as deliver admits at most ℓ ascending keys — is
	// the point's bound: the key wave 2 ships under and the distance its
	// admission ball reaches. A short list bounds nothing: every shard
	// admits that point, unbounded, and it degenerates to full scatter —
	// still correct, just not cheaper.
	wave2 := make([][]int, f.k)
	waves := 1
	var gathered int64
	if pruned {
		ub := make([]float64, n)
		bounds := make([]keys.Key, n)
		for pi := range ub {
			ub[pi], bounds[pi] = math.Inf(1), keys.MaxKey
			if list := got[pi][probe[pi]]; len(list) == q.L {
				bounds[pi] = list[q.L-1].Key
				ub[pi] = f.pruner.KeyDist(bounds[pi].Dist)
			}
		}
		for id := range wave2 {
			wave2[id] = metricindex.AdmitSub(dist[id], ub, radius[id], contacted[id])
			if len(wave2[id]) > 0 {
				waves = 2
			}
		}
		if waves == 2 {
			if job, rep = sched.runWave(q, wave2, bounds, true); job == nil {
				return rep
			}
			job.collect(got)
			for _, nr := range job.shares {
				for _, qr := range nr.Queries {
					gathered += int64(len(qr.Winners))
				}
			}
		}
	}

	var contacts, skipped int64
	for id := range wave1 {
		contacts += int64(len(wave1[id]) + len(wave2[id]))
		if len(wave1[id]) == 0 && len(wave2[id]) == 0 {
			skipped++
		}
	}
	rep = sched.reply(q, got, waves, contacts)
	if rep.Err == "" && pruned {
		// Recorded only for a pruned query that answers, like the
		// frontend_mesh_* counters.
		sched.fm.pruneWaves.Add(int64(waves))
		sched.fm.pruneContacts.Add(contacts)
		sched.fm.pruneSkipped.Add(skipped)
		sched.fm.pruneGathered.Add(gathered)
	}
	return rep
}
