package obs

import (
	"sync"
	"time"
)

// DefaultTraceDepth is the span-ring size used when NewTracer is given
// a non-positive depth. It comfortably exceeds the scheduler's maximum
// epoch window, so an in-flight epoch's span is never recycled.
const DefaultTraceDepth = 256

// SeatMark records when one seat's result frame arrived, as an offset
// from the span's start.
type SeatMark struct {
	Seat     int   `json:"seat"`
	OffsetNS int64 `json:"offset_ns"`
}

// Span traces one epoch through the frontend scheduler: admission
// (Begin, when the epoch ordinal is consumed), dispatch (frames written
// to every seat), per-seat result arrival, collation (all expected
// frames accounted for, outcome known), and reply (the caller observed
// the result). All wall-clock reads happen inside the span's methods;
// the recorded offsets flow only into snapshots, never back into epoch
// computation.
//
// Spans live in a Tracer's preallocated ring and are handed out by
// Begin. Every method is safe on a nil receiver (a disabled tracer
// returns nil spans), so call sites need no conditionals.
type Span struct {
	mu sync.Mutex

	epoch   uint64
	op      uint8
	batch   int
	direct  bool
	start   time.Time
	used    bool
	done    bool
	degrade bool
	err     string

	dispatchNS int64
	collateNS  int64
	replyNS    int64
	seats      []SeatMark
}

// Tracer hands out spans from a fixed ring; the last depth spans are
// retained for /trace/recent. Recording mutates preallocated slots
// under short mutexes — the steady state allocates nothing.
type Tracer struct {
	mu   sync.Mutex
	ring []*Span
	next int
}

// NewTracer returns a tracer retaining the last depth spans
// (DefaultTraceDepth if depth <= 0). Depth should exceed the number of
// concurrently in-flight epochs; a slot recycled while its epoch is
// still live only garbles that span's telemetry, never the answer.
func NewTracer(depth int) *Tracer {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	t := &Tracer{ring: make([]*Span, depth)}
	for i := range t.ring {
		t.ring[i] = &Span{}
	}
	return t
}

// Begin claims the next ring slot for a new epoch span. Returns nil on
// a nil tracer.
func (t *Tracer) Begin(epoch uint64, op uint8, batch int, direct bool) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sp := t.ring[t.next]
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
	sp.mu.Lock()
	sp.epoch = epoch
	sp.op = op
	sp.batch = batch
	sp.direct = direct
	sp.start = time.Now()
	sp.used = true
	sp.done = false
	sp.degrade = false
	sp.err = ""
	sp.dispatchNS = 0
	sp.collateNS = 0
	sp.replyNS = 0
	sp.seats = sp.seats[:0]
	sp.mu.Unlock()
	return sp
}

// MarkDispatched records that every seat's dispatch frame was written.
func (sp *Span) MarkDispatched() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.dispatchNS = int64(time.Since(sp.start))
	sp.mu.Unlock()
}

// MarkSeat records the arrival of seat id's result frame.
func (sp *Span) MarkSeat(id int) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.seats = append(sp.seats, SeatMark{Seat: id, OffsetNS: int64(time.Since(sp.start))})
	sp.mu.Unlock()
}

// MarkCollated records the epoch outcome: every expected frame is
// accounted for (or the epoch was abandoned) and the merged reply is
// built. errMsg is empty on success; degraded marks seat-loss failures.
func (sp *Span) MarkCollated(errMsg string, degraded bool) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.collateNS = int64(time.Since(sp.start))
	sp.err = errMsg
	sp.degrade = degraded
	sp.mu.Unlock()
}

// Finish records the reply instant and completes the span. The span is
// only mutated in place, so finishing allocates nothing.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.replyNS = int64(time.Since(sp.start))
	sp.done = true
	sp.mu.Unlock()
}

// SpanSnapshot is the JSON form of a span, used by /trace/recent.
// Offsets are nanoseconds from Start; zero means the
// stage was not reached.
type SpanSnapshot struct {
	Epoch      uint64     `json:"epoch"`
	Op         uint8      `json:"op"`
	Batch      int        `json:"batch"`
	Direct     bool       `json:"direct,omitempty"`
	Start      time.Time  `json:"start"`
	DispatchNS int64      `json:"dispatch_ns"`
	CollateNS  int64      `json:"collate_ns"`
	ReplyNS    int64      `json:"reply_ns"`
	Seats      []SeatMark `json:"seats,omitempty"`
	Err        string     `json:"err,omitempty"`
	Degraded   bool       `json:"degraded,omitempty"`
	Done       bool       `json:"done"`
}

func (sp *Span) snapshotLocked() SpanSnapshot {
	seats := make([]SeatMark, len(sp.seats))
	copy(seats, sp.seats)
	return SpanSnapshot{
		Epoch:      sp.epoch,
		Op:         sp.op,
		Batch:      sp.batch,
		Direct:     sp.direct,
		Start:      sp.start,
		DispatchNS: sp.dispatchNS,
		CollateNS:  sp.collateNS,
		ReplyNS:    sp.replyNS,
		Seats:      seats,
		Err:        sp.err,
		Degraded:   sp.degrade,
		Done:       sp.done,
	}
}

// Recent copies the retained spans, oldest first. Unused slots are
// skipped; spans still in flight appear with Done == false.
func (t *Tracer) Recent() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	order := make([]*Span, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		order = append(order, t.ring[(t.next+i)%len(t.ring)])
	}
	t.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(order))
	for _, sp := range order {
		sp.mu.Lock()
		if sp.used {
			out = append(out, sp.snapshotLocked())
		}
		sp.mu.Unlock()
	}
	return out
}
