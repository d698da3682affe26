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
// pipeline — plan → contact set → per-seat sub-batch → dispatch wave →
// collect → fold — and the two ways a query can run are two plans for it.
//
// A wave is one epoch: one ordinal, one dispatch frame per contacted seat,
// one result frame back from each. A plan says which seats a wave contacts,
// which points of the batch each seat is sent, and whether the contacted
// nodes run the epoch on the mesh. The mesh plan is a single wave: every
// seat, the whole batch, mesh on — the nodes run the paper's protocol among
// themselves and each returns its share of the answer. The pruned plan
// (FrontendOptions.Pruner) is up to two waves with the mesh off: each point
// first probes its nearest shard, then reaches only the shards its
// admission ball can still intersect — a contacted node returns its local
// top-ℓ and the frontend folds. Either way the caller holds one window slot
// for the whole query, dispatchWave is the only code that consumes an
// ordinal and writes dispatch frames, and the per-seat results are filed
// under the batch positions they answer before any plan-specific fold.
//
// Pipelining. Up to Window queries are in flight at once. A wave takes its
// ordinal — and with it the deterministic per-epoch seed
// DeriveSeed(sessionSeed, ordinal) — under the frontend lock and registers
// a collation job before its first write; the per-node control pumps push
// each arriving result or error frame to its job by ordinal, so replies
// complete out of order without any epoch waiting on an unrelated one.
// Admission beyond the window blocks (backpressure on the client
// connection) until a slot frees. Answers are bit-identical to serialized
// execution: every algorithm is exact, and the ordinal-derived seeds steer
// only sampling and round counts, never results.
//
// Server-side batching. With ServerBatch enabled, concurrently arriving
// single-point queries that agree on (op, ℓ, point tag) coalesce into one
// batch query: a query joins the open bucket for its key, and the bucket
// flushes when it reaches MaxServerBatch points or after Linger —
// whichever comes first — turning the client-side KNNBatch amortization
// (shared physical rounds, one dispatch) into a free win for many small
// clients. The flushed bucket runs through the same pipeline as any client
// batch; each coalesced query receives its own result, and the epoch-wide
// cost fields (rounds, messages, bytes) are reported to every participant.
//
// Churn interaction. A seat lost mid-flight fails exactly the waves that
// were dispatched to it — each affected job completes with a retryable
// degraded reply — while queued and coalescing queries never consume an
// ordinal: they fail fast at admission with the usual degraded error until
// the seat heals. A mesh wave needs every seat; a pruned wave only the
// seats it contacts, so an absent seat whose shard the admission test
// prunes does not fail the query. Close fails every queued and in-flight
// wave with a retryable error instead of racing the control pumps.

// dispatchTimeout bounds one dispatch frame's control-connection write.
// The frontend lock is held across the write phase, so the deadline is
// what keeps a wedged node (alive but not draining its socket) from
// stalling every client — and the EvictNode that would remove it — for
// long: a healthy node's buffer takes a dispatch instantly, and even a
// MaxBatch-sized frame crosses a LAN well inside this bound.
var dispatchTimeout = 5 * time.Second

// maxWindow caps FrontendOptions.Window. The bound keeps the pipelining
// depth consistent with the mesh demultiplexer's stash budgets: a node may
// receive a couple of early frames per not-yet-started epoch per link
// (stashEpochCap), and the per-link total (stashTotalCap) must cover a
// full window of such epochs — a window beyond that could trip the
// flood-protection link kill on a healthy but lagging node.
const maxWindow = 64

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
	// Window is the maximum number of query epochs in flight at once.
	// 1 serializes epochs (the pre-scheduler behavior); the default is 8
	// and values are capped at 64 (the mesh demultiplexer's buffering is
	// budgeted for that depth).
	Window int
	// ServerBatch enables transparent server-side batching: concurrently
	// arriving single-point queries with the same (op, ℓ, tag) coalesce
	// into one lockstep batch epoch. Off by default — coalescing trades up
	// to Linger of latency for throughput.
	ServerBatch bool
	// Linger bounds how long an open coalescing bucket waits for more
	// queries before it flushes (default 500µs). Only meaningful with
	// ServerBatch.
	Linger time.Duration
	// MaxServerBatch caps a coalesced batch (default 64, at most
	// wire.MaxBatch). A full bucket flushes immediately.
	MaxServerBatch int
	// Pruner enables metric-index pruned dispatch for every query shape —
	// KNN, Classify and Regress, single points and batches alike. Each
	// point of a query first probes its nearest shard for an upper bound
	// on its ℓ-th neighbor distance, and a second wave then sends each
	// remaining shard only the sub-batch of points whose admission ball can
	// intersect it — no mesh epoch, shards contacted by zero points skipped
	// entirely, answers bit-identical to full scatter (Regress replays the
	// mesh's deterministic ascending-seat fold at the frontend). Queries the
	// path cannot bound (any query while a seat lacks a metric summary, or
	// whose geometry rejects a point) run as ordinary scatter epochs. Nil
	// disables pruning.
	Pruner Pruner
	// Metrics receives the frontend's runtime counters, gauges and
	// histograms (see metrics.go for the instrument names). Nil binds the
	// instrumentation to a private registry: the recording path is
	// identical either way, so exposing metrics cannot perturb serving.
	Metrics *obs.Registry
	// Trace collects per-epoch spans (admission → dispatch → collation →
	// reply, with seat-level arrival offsets) into the tracer's ring for
	// /trace/recent and its optional JSONL sink. Nil disables span
	// collection entirely.
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
	if o.MaxServerBatch < 1 {
		o.MaxServerBatch = 64
	}
	if o.MaxServerBatch > wire.MaxBatch {
		o.MaxServerBatch = wire.MaxBatch
	}
	return o
}

// scheduler pipelines query epochs over the mesh and coalesces single
// queries into batch epochs. Lock order: f.mu may be held while taking
// sched.mu (admission registers jobs under both); sched.mu is never held
// while taking f.mu — frame delivery collects any eviction it implies and
// performs it after releasing sched.mu.
type scheduler struct {
	f        *Frontend
	window   int
	linger   time.Duration
	maxBatch int
	batching bool

	fm *feMetrics  // always non-nil (private registry when unconfigured)
	tr *obs.Tracer // nil disables spans; all span methods are nil-safe

	mu       sync.Mutex
	cond     *sync.Cond // admission waits here for a free window slot
	closed   bool
	count    int // in-flight epochs
	inflight map[uint64]*epochJob
	buckets  map[bucketKey]*bucket
}

func newScheduler(f *Frontend, opts FrontendOptions) *scheduler {
	opts = opts.withDefaults()
	sched := &scheduler{
		f:        f,
		window:   opts.Window,
		linger:   opts.Linger,
		maxBatch: opts.MaxServerBatch,
		batching: opts.ServerBatch,
		fm:       newFeMetrics(opts.Metrics),
		tr:       opts.Trace,
		inflight: make(map[uint64]*epochJob),
		buckets:  make(map[bucketKey]*bucket),
	}
	sched.cond = sync.NewCond(&sched.mu)
	return sched
}

// epochJob is one in-flight wave's collation state: which (seat, connection
// incarnation) pairs still owe a frame, each seat's result so far, and how
// the wave ends. All fields are guarded by scheduler.mu until done closes
// and are immutable after.
type epochJob struct {
	epoch uint64
	// n is the batch size and subs[id] the batch positions of the points
	// seat id was sent, in frame order — the seat's result must carry one
	// entry per position. subs is nil on a mesh wave: every seat answers the
	// whole batch.
	n    int
	subs [][]int
	// shares[id] is seat id's result (zero until it reports, and for a seat
	// the wave did not contact).
	shares []wire.NodeResult

	expect    []uint64 // per node id: expected gen+1, or 0 once accounted
	expectN   int      // seats still owing a frame
	lost      []int    // seats lost mid-epoch
	lostCause error
	errMsg    string // first (origin-preferred) epoch failure
	errOrigin bool
	// rep is the wave's outcome: the failure, or the epoch-wide cost (max
	// rounds, total traffic) and leader of a wave whose every seat answered.
	rep      wire.Reply
	finished bool
	done     chan struct{}
	span     *obs.Span // epoch trace span; nil when tracing is off
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
			pi := si
			if job.subs != nil {
				pi = job.subs[id][si]
			}
			got[pi][id] = qr.Winners
		}
	}
}

// newGather allocates the per-point, per-seat winner lists collect fills.
func newGather(n, k int) [][][]points.Item {
	got, lists := make([][][]points.Item, n), make([][]points.Item, n*k)
	for pi := range got {
		got[pi] = lists[pi*k : (pi+1)*k : (pi+1)*k]
	}
	return got
}

// mergeItems merges one point's per-seat winner lists into ascending key
// order. Keys are unique (distance, ID) pairs, so the order is total and
// the merge has exactly one outcome regardless of which seat contributed
// which item.
func mergeItems(lists [][]points.Item) []points.Item {
	var all []points.Item
	for _, items := range lists {
		all = append(all, items...)
	}
	points.SortItems(all)
	return all
}

// sharesWithin cuts one point's per-seat winner lists (each in ascending
// key order, as nodes report them) down to the items at or below the global
// boundary key: seat id's share of the global top-ℓ, in the order the seat
// itself would have summed it in a mesh epoch.
func sharesWithin(lists [][]points.Item, boundary keys.Key) [][]points.Item {
	shares := make([][]points.Item, len(lists))
	for id, items := range lists {
		shares[id] = items[:sort.Search(len(items), func(i int) bool { return boundary.Less(items[i].Key) })]
	}
	return shares
}

// closingReply is the retryable failure every queued, coalescing and
// in-flight query receives when the frontend shuts down mid-flight.
func closingReply() wire.Reply {
	return wire.Reply{Err: "frontend shutting down; query aborted (safe to retry)", Degraded: true}
}

// submit answers one validated client query through the scheduler. Single
// queries on a batching frontend coalesce first — the shared bucket then
// runs like any client batch, so server-side batching and pruning compose
// instead of excluding each other.
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
	case rep.Degraded:
		sched.fm.repliesDegr.Inc()
	default:
		sched.fm.repliesFail.Inc()
	}
	return rep
}

// execute runs one (possibly batched) query under one window slot: by the
// pruned plan when the geometry can bound the whole batch, else by the mesh
// plan. The slot covers every wave of the query — the probe and the gather
// of a pruned query are halves of one answer, and parking the gather behind
// fresh admissions could deadlock a full window of half-done queries.
func (sched *scheduler) execute(q wire.Query) wire.Reply {
	dist, radius, pruned := sched.geometry(q)
	if !pruned {
		// Degraded fast-fail before admission: a mesh wave needs every
		// seat, so a probe during an outage answers immediately — even
		// while the window is full of doomed epochs — and consumes neither
		// an ordinal nor a window slot.
		f := sched.f
		f.mu.Lock()
		rep, ok := f.degradedLocked(f.slots)
		f.mu.Unlock()
		if !ok {
			return rep
		}
	}
	sched.mu.Lock()
	for !sched.closed && sched.count >= sched.window {
		sched.cond.Wait()
	}
	if sched.closed {
		sched.mu.Unlock()
		return closingReply()
	}
	sched.count++
	sched.fm.occupancy.Observe(int64(sched.count))
	sched.fm.inflight.Set(int64(sched.count))
	sched.mu.Unlock()
	defer func() {
		sched.mu.Lock()
		// A concurrent shutdown already reset the counter (and closed
		// gates all admission), so only a live scheduler's slot returns.
		if !sched.closed {
			sched.count--
			sched.fm.inflight.Set(int64(sched.count))
			sched.cond.Broadcast()
		}
		sched.mu.Unlock()
	}()
	if pruned {
		return sched.runPruned(q, dist, radius)
	}
	return sched.run(q)
}

// run answers q by the mesh plan: one wave to every seat, the whole batch,
// mesh on. The nodes select the global top-ℓ among themselves, so the fold
// is a plain merge: per point, the union of the seats' winner shares in key
// order plus the leader's outcome (boundary, selection stats and, for
// Classify/Regress, the value the mesh aggregated).
func (sched *scheduler) run(q wire.Query) wire.Reply {
	job, rep := sched.runWave(q, true, nil)
	if job == nil {
		return rep
	}
	got := newGather(len(q.Points), sched.f.k)
	job.collect(got)
	rep = job.rep
	rep.Results = make([]wire.QueryReply, len(q.Points))
	for pi := range rep.Results {
		qr := &rep.Results[pi]
		for _, nr := range job.shares {
			if nr.IsLeader {
				qr.QueryOutcome = nr.Queries[pi].QueryOutcome
			}
		}
		if q.Op == wire.OpKNN {
			qr.Items = mergeItems(got[pi])
		}
	}
	return rep
}

// runWave dispatches one wave and waits for its collation. It returns a nil
// job (and the reply to send instead) when the wave could not run or did
// not succeed.
func (sched *scheduler) runWave(q wire.Query, mesh bool, subs [][]int) (*epochJob, wire.Reply) {
	job, rep := sched.dispatchWave(q, mesh, subs)
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
// its collation job. A mesh wave (subs nil) sends every seat the whole batch
// as a KindDispatch frame; a direct wave sends seat id exactly the
// sub-batch subs[id] of q's points as a KindDispatchDirect frame and does
// not contact a seat whose sub-batch is empty. Every target that receives
// the whole batch — all of them on a mesh wave, and always for a
// single-point query — shares one encode-once frame; a strict sub-batch
// gets a frame of its own. It returns a nil job (and the reply to send
// instead) when the wave cannot run: the frontend is closing, or a seat the
// wave contacts is absent — any other absent seat is invisible to a direct
// wave, because the admission test already proved its shard irrelevant. The
// job is registered before the first write, so a result can never arrive
// unclaimed; f.mu is held across the writes, which keeps every seat's conn
// and gen consistent with the expectation set.
func (sched *scheduler) dispatchWave(q wire.Query, mesh bool, subs [][]int) (*epochJob, wire.Reply) {
	f := sched.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.slots == nil || f.closed.Load() {
		return nil, closingReply()
	}
	targets, appendFrame := f.slots, wire.AppendDispatch
	if !mesh {
		targets, appendFrame = nil, wire.AppendDispatchDirect
		for _, s := range f.slots {
			if len(subs[s.id]) > 0 {
				targets = append(targets, s)
			}
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
	encode := func(sq wire.Query) ([]byte, error) {
		dw := wire.GetWriter()
		writers = append(writers, dw)
		dw.BeginFrame()
		appendFrame(dw, epoch, sq)
		return dw.FinishFrame()
	}
	frames := make([][]byte, len(targets))
	var whole []byte
	var pts [][]byte
	for i, s := range targets {
		var ferr error
		switch {
		case !mesh && len(subs[s.id]) < len(q.Points):
			pts = pts[:0]
			for _, pi := range subs[s.id] {
				pts = append(pts, q.Points[pi])
			}
			frames[i], ferr = encode(wire.Query{Op: q.Op, L: q.L, Tag: q.Tag, Points: pts})
		case whole == nil:
			whole, ferr = encode(q)
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
		n:      len(q.Points),
		subs:   subs,
		shares: make([]wire.NodeResult, f.k),
		expect: make([]uint64, f.k),
		done:   make(chan struct{}),
		span:   sched.tr.Begin(epoch, q.Op, len(q.Points), !mesh),
	}
	// Register the job with its full expectation set before any write, so
	// a node answering instantly finds its job — then release sched.mu for
	// the write phase: collation of unrelated epochs (and their client
	// replies) must not queue behind these sockets.
	sched.mu.Lock()
	if sched.closed {
		// Close won the race since the f.closed check above: shutdown()
		// has already swept the inflight map, so registering now would
		// strand this job past the sweep (and mislabel its failure as
		// churn when the node connections drop).
		sched.mu.Unlock()
		return nil, closingReply()
	}
	sched.inflight[epoch] = job
	for _, s := range targets {
		job.expectSet(s.id, s.gen)
	}
	sched.mu.Unlock()
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
	sched.mu.Lock()
	for i, s := range targets {
		if writeErrs[i] == nil {
			s.conn.SetWriteDeadline(time.Time{})
			continue
		}
		cause := fmt.Errorf("dispatch to node %d: %v", s.id, writeErrs[i])
		gen := s.gen
		f.markAbsentLocked(s, gen, cause)
		// The node never received this epoch: withdraw its pre-filled
		// expectation (unless the job already finished, e.g. a
		// concurrent shutdown) and fail the epochs in flight on it.
		if job.expectMatch(s.id, gen) && !job.finished {
			job.expectClear(s.id)
			job.fail(s.id, cause)
		}
		sched.seatLostLocked(s.id, gen, cause)
	}
	sched.maybeFinishLocked(job)
	sched.mu.Unlock()
	return job, wire.Reply{}
}

// deliver routes one control frame from (seat id, connection incarnation
// gen) to its epoch's job. Frames for unknown epochs are leftovers of
// completed or failed epochs and are dropped; malformed frames and fatal
// mesh reports evict the implicated seat after the bookkeeping is done
// (never while holding sched.mu — see the lock-order note on scheduler).
func (sched *scheduler) deliver(id int, gen uint64, payload []byte) {
	// Peek the kind and epoch ordinal on a throwaway reader; the decoders
	// below expect the payload with only the kind byte consumed.
	peek := wire.NewReader(payload)
	kind := peek.Kind()
	epoch := peek.Varint()
	if peek.Err() != nil || (kind != wire.KindResult && kind != wire.KindError) {
		cause := fmt.Errorf("node %d sent unexpected control kind %d", id, kind)
		sched.f.evictSeat(id, gen, cause)
		return
	}
	r := wire.NewReader(payload)
	r.U8()
	type evictReq struct {
		implicated bool // echo-suppressed fatal report; else evict id itself
		lostPeer   int
		cause      error
	}
	var evict *evictReq
	sched.mu.Lock()
	job := sched.inflight[epoch]
	if job != nil && !job.expectMatch(id, gen) {
		job = nil // a stale incarnation, or the seat already reported
	}
	switch kind {
	case wire.KindResult:
		if job == nil {
			break // leftover of a finished or failed epoch
		}
		nr, derr := wire.DecodeNodeResult(r)
		// A direct wave may have sent this node only a sub-batch; its
		// result must cover exactly the points it was sent.
		want := job.n
		if job.subs != nil {
			want = len(job.subs[id])
		}
		job.expectClear(id)
		if derr != nil || nr.Node != id || len(nr.Queries) != want {
			cause := fmt.Errorf("node %d sent a malformed result (%v)", id, derr)
			job.fail(id, cause)
			evict = &evictReq{cause: cause}
			break
		}
		// The seat's share, and its view of the epoch cost (max rounds,
		// total traffic).
		job.shares[id] = nr
		if nr.Rounds > job.rep.Rounds {
			job.rep.Rounds = nr.Rounds
		}
		job.rep.Messages += nr.Messages
		job.rep.Bytes += nr.Bytes
		job.span.MarkSeat(id)
	case wire.KindError:
		ne, derr := wire.DecodeNodeError(r)
		if derr != nil {
			if job == nil {
				break
			}
			cause := fmt.Errorf("node %d sent a malformed error", id)
			job.expectClear(id)
			job.fail(id, cause)
			evict = &evictReq{cause: cause}
			break
		}
		if job != nil {
			job.expectClear(id)
			if job.errMsg == "" || (ne.Origin && !job.errOrigin) {
				job.errMsg = fmt.Sprintf("node %d: %s", id, ne.Msg)
				job.errOrigin = ne.Origin
			}
		}
		if ne.Fatal {
			// A dead mesh, not a failed program: retire the implicated
			// seat — its holder (if alive at all) must re-join with fresh
			// links before the cluster serves again. This runs even when
			// the epoch's job already finished (e.g. it was failed the
			// moment another seat dropped): the broken link is real, and
			// ignoring the report would leave the implicated seat standing
			// until the next dispatched epoch trips over it.
			cause := fmt.Errorf("node %d reported a fatal mesh failure: %s", id, ne.Msg)
			evict = &evictReq{
				implicated: true,
				lostPeer:   ne.LostPeer,
				cause:      cause,
			}
			if job != nil {
				// The epoch died of churn, not of its program: record the
				// implicated seat as lost on this job so it finishes with
				// the retryable degraded reply — even if that seat's own
				// result already arrived before its mesh fault surfaced
				// (e.g. the node answered, then died taking a link with
				// it).
				lost := id
				if ne.LostPeer >= 0 && ne.LostPeer < sched.f.k {
					lost = ne.LostPeer
				}
				job.fail(lost, cause)
			}
		}
	default:
		// Unreachable: the peek above evicted anything that is not a
		// KindResult/KindError control frame before we got here.
	}
	if job != nil {
		sched.maybeFinishLocked(job)
	}
	sched.mu.Unlock()
	if evict != nil {
		if evict.implicated {
			sched.f.evictImplicated(id, gen, epoch, evict.lostPeer, evict.cause)
		} else {
			sched.f.evictSeat(id, gen, evict.cause)
		}
	}
}

// seatLost fails every in-flight epoch that was dispatched to connection
// incarnation gen of seat id. Every present→absent seat transition is
// followed by exactly one seatLost call for the retired incarnation.
func (sched *scheduler) seatLost(id int, gen uint64, cause error) {
	sched.mu.Lock()
	sched.seatLostLocked(id, gen, cause)
	sched.mu.Unlock()
}

func (sched *scheduler) seatLostLocked(id int, gen uint64, cause error) {
	// Fail the doomed epochs in ordinal order, not map order: each fail
	// finishes a job and releases its waiter, and releasing them oldest
	// first keeps the client-observable failure order identical run to
	// run.
	epochs := make([]uint64, 0, len(sched.inflight))
	for epoch := range sched.inflight {
		epochs = append(epochs, epoch)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, epoch := range epochs {
		job := sched.inflight[epoch]
		if job.expectMatch(id, gen) {
			job.expectClear(id)
			job.fail(id, fmt.Errorf("lost node %d mid-query: %v", id, cause))
			sched.maybeFinishLocked(job)
		}
	}
}

// maybeFinishLocked completes the job once every dispatched-to seat has
// been accounted for — or immediately when any seat was lost: the epoch is
// doomed as a unit, and the surviving nodes may be parked inside it waiting
// for the lost peer's frames, so waiting for their reports could deadlock
// the reply behind the very outage it describes. A lost seat wins
// (retryable degraded reply), then an epoch failure, then success (the
// waiter folds the collected shares); late frames for a finished epoch are
// dropped. The window slot is the query's, not the wave's: its owner
// (execute) returns it. Caller holds sched.mu.
func (sched *scheduler) maybeFinishLocked(job *epochJob) {
	if job.finished || (job.expectN > 0 && len(job.lost) == 0) {
		return
	}
	job.finished = true
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
	default:
		job.rep.Leader = sched.f.leader
		sched.fm.meshRounds.Add(int64(job.rep.Rounds))
		sched.fm.meshMessages.Add(job.rep.Messages)
		sched.fm.meshBytes.Add(job.rep.Bytes)
	}
	job.span.MarkCollated(job.rep.Err, job.rep.Degraded)
	delete(sched.inflight, job.epoch)
	close(job.done)
}

// shutdown fails every queued, coalescing and in-flight query with a
// retryable closing reply and refuses later admissions. In-flight epochs
// may still complete on the nodes; their late results are dropped.
func (sched *scheduler) shutdown() {
	sched.mu.Lock()
	if sched.closed {
		sched.mu.Unlock()
		return
	}
	sched.closed = true
	//knnlint:allow detsource -- shutdown fanout: every epoch gets the identical closing reply, order unobservable
	for _, job := range sched.inflight {
		if !job.finished {
			job.finished = true
			job.rep = closingReply()
			job.span.MarkCollated(job.rep.Err, true)
			close(job.done)
		}
	}
	sched.inflight = make(map[uint64]*epochJob)
	sched.count = 0
	sched.fm.inflight.Set(0)
	var open []*bucket
	//knnlint:allow detsource -- shutdown fanout over independent buckets; each gets the same treatment
	for key, b := range sched.buckets {
		b.timer.Stop()
		delete(sched.buckets, key)
		open = append(open, b)
	}
	sched.cond.Broadcast()
	sched.mu.Unlock()
	for _, b := range open {
		b.rep = closingReply()
		close(b.done)
	}
}

// ---------------------------------------------------------------------------
// Server-side batching
// ---------------------------------------------------------------------------

// bucketKey identifies queries that may share one lockstep batch epoch: a
// wire.Query carries a single (op, ℓ, tag) for its whole batch.
type bucketKey struct {
	op  uint8
	l   int
	tag uint8
}

// bucket is one open coalescing batch: the accumulating query, the linger
// timer that flushes a partial batch, and the rendezvous the waiters share.
// The points slice is guarded by scheduler.mu until the bucket leaves the
// map; rep and solo are written exactly once, before done closes.
type bucket struct {
	q      wire.Query
	timer  *time.Timer
	done   chan struct{}
	rep    wire.Reply
	solo   []wire.Reply  // per-query fallback replies; see runBucket
	opened obs.Stopwatch // bucket open instant, for the linger histogram
}

// coalesce joins (or opens) the bucket for q's key and waits for the shared
// batch epoch's outcome. The joiner that fills the bucket runs the epoch
// itself; otherwise the linger timer flushes the partial batch.
func (sched *scheduler) coalesce(q wire.Query) wire.Reply {
	// Degraded fast-fail before joining a bucket: during an outage a
	// query answers immediately instead of lingering in a batch that is
	// doomed to the same degraded reply. A prunable session skips the fast
	// fail — its buckets run through the pruned path, which only needs the
	// seats the queries' admission balls reach, so an absent seat does not
	// doom the bucket.
	sched.f.mu.Lock()
	prunable := sched.f.prunableLocked()
	rep, ok := sched.f.degradedLocked(sched.f.slots)
	sched.f.mu.Unlock()
	if !ok && !prunable {
		return rep
	}
	key := bucketKey{op: q.Op, l: q.L, tag: q.Tag}
	sched.mu.Lock()
	if sched.closed {
		sched.mu.Unlock()
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
	full := len(b.q.Points) >= sched.maxBatch
	if full {
		delete(sched.buckets, key)
		b.timer.Stop()
	}
	sched.mu.Unlock()
	if full {
		sched.runBucket(b)
	} else {
		<-b.done
	}
	return bucketReply(b, idx)
}

// flush runs a lingered partial bucket. A bucket no longer in the map was
// already flushed full (or shut down); the timer's flush stands down.
func (sched *scheduler) flush(key bucketKey, b *bucket) {
	sched.mu.Lock()
	if sched.buckets[key] != b {
		sched.mu.Unlock()
		return
	}
	delete(sched.buckets, key)
	sched.mu.Unlock()
	sched.runBucket(b)
}

// runBucket executes the coalesced batch epoch and publishes its outcome.
// A batch epoch fails as a unit, but a coalesced batch's participants are
// strangers — a client-chosen KNNBatch accepts shared fate, a coalesced
// single query must not inherit another client's bad point. So a program
// failure of the shared epoch (not churn: a degraded failure is already
// retryable for everyone) falls back to re-running each participant's
// query as its own solo epoch, isolating the error to the offender.
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
// outcome: its solo fallback reply if the shared epoch failed, else its
// slice of the batch reply — with the epoch-wide cost fields, which
// describe the shared epoch, reported to every participant.
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
		Bytes:    b.rep.Bytes,
		Leader:   b.rep.Leader,
		Results:  []wire.QueryReply{b.rep.Results[idx]},
	}
}

// ---------------------------------------------------------------------------
// The pruned plan
// ---------------------------------------------------------------------------

// geometry decides whether q can run by the pruned plan and, if so, returns
// what the plan is computed from: dist[id][pi], the true distance from batch
// point pi to shard id's centroid, and each shard's radius. It is eligible
// when a Pruner is configured, every seat reported a metric summary, and
// the geometry can speak for every point of the batch; every query shape
// rides it — KNN, Classify and Regress, single points and whole batches
// alike. ok=false selects the mesh plan.
func (sched *scheduler) geometry(q wire.Query) (dist [][]float64, radius []float64, ok bool) {
	f := sched.f
	if f.pruner == nil {
		return nil, nil, false
	}
	f.mu.Lock()
	if !f.prunableLocked() {
		f.mu.Unlock()
		return nil, nil, false
	}
	// Summaries are immutable for a seat's lifetime (a re-joining node must
	// reproduce its summary bit-for-bit), so the geometry is snapshotted
	// once and used lock-free below.
	radius = make([]float64, f.k)
	center := make([][]byte, f.k)
	for i, s := range f.slots {
		radius[i] = s.summary.Radius
		center[i] = s.summary.Center
	}
	f.mu.Unlock()
	dist = make([][]float64, f.k)
	for id := range center {
		dist[id] = make([]float64, len(q.Points))
		for pi, p := range q.Points {
			d, err := f.pruner.CenterDist(p, center[id])
			if err != nil {
				// The geometry cannot speak for this point (e.g. a dimension
				// mismatch); the mesh plan runs the node-side validation and
				// reports its error.
				return nil, nil, false
			}
			dist[id][pi] = d
		}
	}
	return dist, radius, true
}

// runPruned answers q by the pruned plan: up to two direct waves, mesh off.
// Wave 1: every point probes its nearest present shard; the probe winners
// bound each point's global ℓ-th neighbor distance from above. Wave
// 2: each shard receives exactly the sub-batch of points whose admission
// ball can still intersect its centroid ball (metricindex.AdmitSub) — a
// shard admitted by zero points is skipped entirely. The fold then selects
// at the frontend what the mesh plan selects among the nodes: the merged
// local top-ℓ of the contacted shards provably contains each point's global
// top-ℓ (metricindex.Admit), so its first ℓ keys are the answer, each seat's
// items at or below the ℓ-th key are the winner share the mesh would have
// left on that seat, and Classify/Regress are core's own folds over those
// shares (a pruned seat holds no global winner, so its empty share matches
// the mesh too) — bit-identical to the mesh plan by construction. Cost
// reporting follows the plan's own shape: Rounds counts dispatch waves (1 or
// 2), Messages the total per-point shard contacts — Σ over the batch of the
// number of shards each point was sent to, so Messages/len(Points) is the
// contacted-nodes-per-query figure; Bytes stays 0 (no mesh traffic) and the
// BSP selection stats (Survivors, Iterations, FellBack) do not apply.
func (sched *scheduler) runPruned(q wire.Query, dist [][]float64, radius []float64) wire.Reply {
	f := sched.f
	n := len(q.Points)

	// Wave 1: per point, pick the present seat nearest the point (ties
	// toward the lower id) and group the picks into per-seat sub-batches.
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
	// contacted[id][pi] records that point pi was sent to seat id in wave
	// 1, so wave 2's admission skips the pair; nil until seat id is probed
	// by any point.
	contacted := make([][]bool, f.k)
	wave1 := make([][]int, f.k)
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
	}
	got := newGather(n, f.k)
	job, rep := sched.runWave(q, false, wave1)
	if job == nil {
		return rep
	}
	job.collect(got)
	ub := make([]float64, n)
	for pi := range ub {
		ub[pi] = math.Inf(1)
		if probed := mergeItems(got[pi]); len(probed) >= q.L {
			ub[pi] = f.pruner.KeyDist(probed[q.L-1].Key.Dist)
		}
	}

	// Wave 2: each shard gets the sub-batch of points whose ℓ-NN ball can
	// intersect its centroid ball. With no bound for a point (its probe
	// shard held fewer than ℓ points) every shard admits it and that point
	// degenerates to a no-mesh scatter — still correct, just not cheaper.
	wave2 := make([][]int, f.k)
	waves := 1
	for id := range wave2 {
		wave2[id] = metricindex.AdmitSub(dist[id], ub, radius[id], contacted[id])
		if len(wave2[id]) > 0 {
			waves = 2
		}
	}
	if waves == 2 {
		if job, rep = sched.runWave(q, false, wave2); job == nil {
			return rep
		}
		job.collect(got)
	}

	results := make([]wire.QueryReply, n)
	for pi := range results {
		items := mergeItems(got[pi])
		if len(items) > q.L {
			items = items[:q.L]
		}
		qr := &results[pi]
		qr.Boundary = items[len(items)-1].Key
		var err error
		switch q.Op {
		case wire.OpKNN:
			qr.Items = items
		case wire.OpClassify:
			qr.Value, err = core.ClassifyShares(sharesWithin(got[pi], qr.Boundary))
		case wire.OpRegress:
			qr.Value, err = core.RegressShares(sharesWithin(got[pi], qr.Boundary), f.leader)
		}
		if err != nil {
			return wire.Reply{Err: fmt.Sprintf("query failed: %v", err)}
		}
	}
	// Contacts and skips are recorded only for a query that answers: the
	// counter then matches the Σ of client-observed QueryStats.Contacts.
	var contacts, skipped int64
	for id := range wave1 {
		contacts += int64(len(wave1[id]) + len(wave2[id]))
		if len(wave1[id]) == 0 && len(wave2[id]) == 0 {
			skipped++
		}
	}
	sched.fm.pruneWaves.Add(int64(waves))
	sched.fm.pruneContacts.Add(contacts)
	sched.fm.pruneSkipped.Add(skipped)
	return wire.Reply{
		Rounds:   waves,
		Messages: contacts,
		Leader:   f.leader,
		Results:  results,
	}
}
