// Package dsel implements distributed selection in the k-machine model:
// given n keys scattered across k machines and a rank ℓ, find the ℓ-th
// smallest key (the "boundary") so that every machine can output its local
// keys at or below it.
//
// Three protocols share one worker loop and differ only in leader strategy:
//
//   - FindLSmallest — the paper's Algorithm 1: the leader repeatedly draws a
//     pivot uniformly at random from the keys still in range (a machine with
//     probability proportional to its in-range count, then a key uniform
//     within that machine — Lemma 2.1), counts the keys at or below the
//     pivot, and halves the search. O(log n) rounds and O(k log n) messages
//     w.h.p. (Theorem 2.2). An iteration is two rounds, not the four of the
//     algorithm as printed: the leader never asks the drawn machine for a
//     pivot, because every worker already sent one. The query names both
//     sides of the pivot, (lo, p] and (p, hi]; a worker answers with its
//     count on each side and one key drawn uniformly from each non-empty
//     side (only the leader learns which side survives), and the opening
//     statistics carry one uniform local key the same way. The leader's
//     weighted machine choice then selects among candidates it holds —
//     machine i with probability n_i/total, its candidate uniform among its
//     n_i surviving keys and drawn independently of the choice, which is
//     Lemma 2.1's distribution exactly. The search ends by gathering: once
//     every worker's in-range keys fit one message under the link budget
//     (Env.Bandwidth), the next iteration asks for those keys instead of
//     splitting, and the leader selects the rank among them locally. That
//     iteration costs the same two rounds a split would and draws no pivot.
//     Rounds = 2·iterations + 2.
//
//   - SaukasSong — the deterministic baseline from Saukas & Song (SC '98),
//     the closest prior work cited by the paper: each round the leader takes
//     the weighted median of the machines' local medians, which discards at
//     least a quarter of the remaining keys per iteration. O(log n)
//     deterministic iterations.
//
//   - BinarySearch — the folklore baseline ([3, 18] in the paper): bisect
//     the 128-bit key domain itself. Round count Θ(domain bits), independent
//     of n — cheap for small domains, embarrassing for large ones.
//
// All protocols treat the active range as half-open (lo, hi]: a pivot that
// moves the lower boundary is itself excluded from the next iteration, which
// avoids the double-count that a closed-interval reading of the paper's
// pseudocode would allow.
//
// Every message but one is O(1) keys: the largest, the split query, is 49
// bytes, and none exceeds 56, so with kmachine.MessageOverheadBytes each
// crosses the simulator's default 64-byte link in one round. The exception,
// a gather reply, is at most B by construction: the leader asks for one only
// when every worker's reply fits a round (three keys at B = 64).
package dsel

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"

	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/seqselect"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// Message kinds. Workers answer any query kind, so every leader strategy can
// drive the same worker loop.
const (
	msgStats       = iota + 1 // worker → leader: count [+ min + max + uniform key]
	msgSplit                  // leader → all: lo, p, hi — count and draw in (lo, p] and (p, hi]
	msgSplitReply             // worker → leader: count below, count above [+ key below] [+ key above]
	msgCount                  // leader → all: lo, p — count keys in (lo, p]
	msgCountReply             // worker → leader: count
	msgMedianQuery            // leader → all: lo, hi — median of keys in (lo, hi]
	msgMedianReply            // worker → leader: count [+ median]
	msgFinished               // leader → all: boundary, iterations
	msgGather                 // leader → all: lo, hi — send every key in (lo, hi]
	msgGatherReply            // worker → leader: count, then that many keys
)

// Result is what every machine learns when a selection protocol finishes.
type Result struct {
	// Boundary is the globally ℓ-th smallest key; the union over machines
	// of keys ≤ Boundary is exactly the ℓ smallest keys.
	Boundary keys.Key
	// Winners are this machine's local keys ≤ Boundary, in input order.
	Winners []keys.Key
	// Iterations is the number of pivot (or median, or bisection) steps
	// the leader used; identical on every machine.
	Iterations int
}

// Options tunes a selection run.
type Options struct {
	// OnPivot, if non-nil, is invoked on the leader at every pivot
	// decision with the chosen pivot, the active range and the number of
	// in-range keys. Used by the Lemma 2.1 uniformity experiment.
	OnPivot func(pivot, lo, hi keys.Key, total int64)
}

// Protocol is one machine's side of a selection protocol: FindLSmallest,
// SaukasSong or BinarySearch.
type Protocol func(m kmachine.Env, leader int, local []keys.Key, l int, opts Options) (Result, error)

// Run selects the l-th smallest of the keys in locals with proto as one
// simulator run under sim: machine i holds locals[i], and leader is the
// agreed leader. It returns every machine's Result, indexed by machine, and
// the run's metrics.
func Run(sim kmachine.Config, proto Protocol, leader int, locals [][]keys.Key, l int, opts Options) ([]Result, *kmachine.Metrics, error) {
	res := make([]Result, sim.K)
	met, err := kmachine.Run(sim, func(m kmachine.Env) error {
		r, err := proto(m, leader, locals[m.ID()], l, opts)
		res[m.ID()] = r
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, met, nil
}

// FindLSmallest runs the paper's Algorithm 1. Every machine calls it with
// its local keys; the elected leader index must be agreed beforehand. The
// rank l is global (1 ≤ l ≤ total number of keys).
func FindLSmallest(m kmachine.Env, leader int, local []keys.Key, l int, opts Options) (Result, error) {
	if err := validateLocal(local); err != nil {
		return Result{}, err
	}
	if m.ID() != leader {
		return runWorker(m, leader, local)
	}
	return leadAlg1(m, local, l, opts)
}

// SaukasSong runs the deterministic weighted-median selection baseline.
// It draws no pivots, so opts is unused: it takes one so that the three
// protocols share the Protocol signature.
func SaukasSong(m kmachine.Env, leader int, local []keys.Key, l int, _ Options) (Result, error) {
	if err := validateLocal(local); err != nil {
		return Result{}, err
	}
	if m.ID() != leader {
		return runWorker(m, leader, local)
	}
	return leadSaukasSong(m, local, l)
}

// BinarySearch runs the domain-bisection selection baseline. Like
// SaukasSong, it takes opts only for the Protocol signature.
func BinarySearch(m kmachine.Env, leader int, local []keys.Key, l int, _ Options) (Result, error) {
	if err := validateLocal(local); err != nil {
		return Result{}, err
	}
	if m.ID() != leader {
		return runWorker(m, leader, local)
	}
	return leadBinarySearch(m, local, l)
}

// validateLocal rejects keys that collide with the MinKey sentinel, which
// the half-open range logic reserves as "below everything".
func validateLocal(local []keys.Key) error {
	for _, k := range local {
		if k == keys.MinKey {
			return fmt.Errorf("dsel: local key equals the MinKey sentinel (use IDs >= 1)")
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Worker side (shared by all protocols)
// ---------------------------------------------------------------------------

// runWorker announces local statistics, then answers leader queries until a
// finished message arrives.
func runWorker(m kmachine.Env, leader int, local []keys.Key) (Result, error) {
	m.Send(leader, encodeStats(m.Rand(), local))
	m.EndRound()
	for {
		for _, msg := range m.Gather(1) {
			if msg.From != leader {
				return Result{}, fmt.Errorf("dsel: worker %d got message from non-leader %d", m.ID(), msg.From)
			}
			r := wire.NewReader(msg.Payload)
			kind := r.U8()
			switch kind {
			case msgSplit:
				lo, p, hi := r.Key(), r.Key(), r.Key()
				if err := r.Err(); err != nil {
					return Result{}, fmt.Errorf("dsel: bad split query: %w", err)
				}
				m.Send(leader, encodeSplitReply(splitPick(m.Rand(), local, lo, p, hi)))
			case msgCount:
				lo, p := r.Key(), r.Key()
				if err := r.Err(); err != nil {
					return Result{}, fmt.Errorf("dsel: bad count query: %w", err)
				}
				var w wire.Writer
				w.U8(msgCountReply)
				w.Varint(uint64(seqselect.CountInRange(local, lo, p)))
				m.Send(leader, w.Bytes())
			case msgMedianQuery:
				lo, hi := r.Key(), r.Key()
				if err := r.Err(); err != nil {
					return Result{}, fmt.Errorf("dsel: bad median query: %w", err)
				}
				m.Send(leader, encodeMedianReply(local, lo, hi))
			case msgGather:
				lo, hi := r.Key(), r.Key()
				if err := r.Err(); err != nil {
					return Result{}, fmt.Errorf("dsel: bad gather query: %w", err)
				}
				m.Send(leader, encodeGatherReply(local, lo, hi))
			case msgFinished:
				boundary := r.Key()
				iters := int(r.Varint())
				if err := r.Err(); err != nil {
					return Result{}, fmt.Errorf("dsel: bad finished message: %w", err)
				}
				return Result{
					Boundary:   boundary,
					Winners:    seqselect.FilterLessEq(local, boundary),
					Iterations: iters,
				}, nil
			default:
				return Result{}, fmt.Errorf("dsel: worker %d got unknown message kind %d", m.ID(), kind)
			}
			m.EndRound()
		}
	}
}

// pick is one machine's share of one side of a pivot: how many of its keys
// lie there and, when n > 0, one of them drawn uniformly at random.
type pick struct {
	n    int64
	cand keys.Key
}

// splitPick is a machine's whole share of an Algorithm 1 iteration: count
// the local keys in (lo, p] and in (p, hi] and draw one key uniformly from
// each non-empty side. It allocates nothing: a count pass, one draw per
// non-empty side, and an index pass that stops at the later drawn key. Both
// passes classify a key with borrow arithmetic instead of branches — on
// random keys the comparisons are coin flips a predictor cannot learn.
func splitPick(rng *rand.Rand, local []keys.Key, lo, p, hi keys.Key) (low, high pick) {
	for _, k := range local {
		in := less(lo, k) &^ less(hi, k)
		below := in &^ less(p, k)
		low.n += below
		high.n += in - below
	}
	// wantLow / wantHigh are the 1-based positions of the drawn keys within
	// their sides; −1 is "none wanted" (empty side) or "already found".
	wantLow, wantHigh := int64(-1), int64(-1)
	if low.n > 0 {
		wantLow = rng.Int64N(low.n) + 1
	}
	if high.n > 0 {
		wantHigh = rng.Int64N(high.n) + 1
	}
	var seenLow, seenHigh int64
	for _, k := range local {
		if wantLow < 0 && wantHigh < 0 {
			break
		}
		in := less(lo, k) &^ less(hi, k)
		below := in &^ less(p, k)
		seenLow += below
		seenHigh += in - below
		// A counter first reaches its target on the key that moved it.
		if seenLow == wantLow {
			low.cand, wantLow = k, -1
		}
		if seenHigh == wantHigh {
			high.cand, wantHigh = k, -1
		}
	}
	return low, high
}

// less is 1 when a < b and 0 otherwise: the borrow out of the 128-bit
// subtraction a − b.
func less(a, b keys.Key) int64 {
	_, borrow := bits.Sub64(a.ID, b.ID, 0)
	_, borrow = bits.Sub64(a.Dist, b.Dist, borrow)
	return int64(borrow)
}

// ---------------------------------------------------------------------------
// Leader bookkeeping shared by the strategies
// ---------------------------------------------------------------------------

// half is the leader's view of one side of a pivot — or, embedded in
// leaderState, of the whole active range: the in-range keys per machine,
// their sum, and (what Algorithm 1 draws its next pivot from) one key per
// non-empty machine, uniform among that machine's keys on this side.
type half struct {
	counts []int64
	cands  []keys.Key
	total  int64
}

func newHalf(k int) half {
	return half{counts: make([]int64, k), cands: make([]keys.Key, k)}
}

func (h *half) set(i int, p pick) {
	h.counts[i], h.cands[i] = p.n, p.cand
	h.total += p.n
}

// leaderState tracks the leader's view: the active half-open range (lo, hi],
// the remaining rank within it, and what each machine holds inside it.
type leaderState struct {
	m      kmachine.Env
	local  []keys.Key
	lo, hi keys.Key
	l      int64 // rank still sought inside (lo, hi]
	half         // of the active range
	iters  int
}

// initLeader gathers the opening statistics from all workers (they send
// proactively in round 0) and initializes the range to cover every key.
func initLeader(m kmachine.Env, local []keys.Key, l int) (*leaderState, error) {
	k := m.K()
	st := &leaderState{
		m:     m,
		local: local,
		lo:    keys.MinKey,
		half:  newHalf(k),
		l:     int64(l),
	}
	globalMax := keys.MinKey
	for _, key := range local {
		if globalMax.Less(key) {
			globalMax = key
		}
	}
	if len(local) > 0 {
		st.set(m.ID(), pick{int64(len(local)), local[m.Rand().IntN(len(local))]})
	}
	if k > 1 {
		m.EndRound()
		for _, msg := range m.Gather(k - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != msgStats {
				return nil, fmt.Errorf("dsel: expected stats from %d, got kind %d", msg.From, kind)
			}
			share := pick{n: int64(r.Varint())}
			var mn, mx keys.Key
			if share.n > 0 {
				mn, mx, share.cand = r.Key(), r.Key(), r.Key()
			}
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("dsel: bad stats from %d: %w", msg.From, err)
			}
			if share.n < 0 || share.cand.Less(mn) || mx.Less(share.cand) {
				return nil, fmt.Errorf("dsel: bad stats from %d: count %d, or a candidate outside [min, max]", msg.From, share.n)
			}
			if globalMax.Less(mx) {
				globalMax = mx
			}
			st.set(msg.From, share)
		}
	}
	if int64(l) < 1 || int64(l) > st.total {
		return nil, fmt.Errorf("dsel: rank %d out of range [1, %d]", l, st.total)
	}
	st.hi = globalMax
	return st, nil
}

// countBelow broadcasts a count query for (st.lo, p] and returns the
// per-machine counts plus their sum. Two rounds, 2(k−1) messages. A reply
// that is truncated, of the wrong kind, or claims more keys than its sender
// holds in range is an error: decoding it as a count would silently move the
// boundary.
func (st *leaderState) countBelow(p keys.Key) (half, error) {
	k := st.m.K()
	low := half{counts: make([]int64, k)}
	low.counts[st.m.ID()] = int64(seqselect.CountInRange(st.local, st.lo, p))
	if k > 1 {
		var w wire.Writer
		w.U8(msgCount)
		w.Key(st.lo)
		w.Key(p)
		st.m.Broadcast(w.Bytes())
		st.m.EndRound()
		for _, msg := range st.m.Gather(k - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != msgCountReply {
				return half{}, fmt.Errorf("dsel: expected count reply from %d, got kind %d", msg.From, kind)
			}
			n := r.Varint()
			if err := r.Err(); err != nil {
				return half{}, fmt.Errorf("dsel: bad count reply from %d: %w", msg.From, err)
			}
			if n > uint64(st.counts[msg.From]) {
				return half{}, fmt.Errorf("dsel: machine %d counted %d keys below the pivot but holds %d in range",
					msg.From, n, st.counts[msg.From])
			}
			low.counts[msg.From] = int64(n)
		}
	}
	for _, c := range low.counts {
		low.total += c
	}
	return low, nil
}

// above derives the per-machine counts in (p, st.hi] from those in
// (st.lo, p], for the strategies whose count query names only one side.
func (st *leaderState) above(low half) half {
	high := half{counts: make([]int64, len(st.counts)), total: st.total - low.total}
	for i, c := range low.counts {
		high.counts[i] = st.counts[i] - c
	}
	return high
}

// split is Algorithm 1's count step: it broadcasts (st.lo, p, st.hi) and
// returns, for each side of p, every machine's count and uniform candidate.
// Two rounds, 2(k−1) messages. Replies are checked against what the leader
// already knows — the two counts must add up to the sender's in-range count,
// a non-empty side must come with a candidate, and the candidate must lie on
// its side — so a malformed reply fails the run instead of moving the
// boundary or stalling the search on a pivot outside the range.
func (st *leaderState) split(p keys.Key) (low, high half, err error) {
	k := st.m.K()
	low, high = newHalf(k), newHalf(k)
	ownLow, ownHigh := splitPick(st.m.Rand(), st.local, st.lo, p, st.hi)
	low.set(st.m.ID(), ownLow)
	high.set(st.m.ID(), ownHigh)
	if k == 1 {
		return low, high, nil
	}
	var w wire.Writer
	w.U8(msgSplit)
	w.Key(st.lo)
	w.Key(p)
	w.Key(st.hi)
	st.m.Broadcast(w.Bytes())
	st.m.EndRound()
	for _, msg := range st.m.Gather(k - 1) {
		r := wire.NewReader(msg.Payload)
		if kind := r.U8(); kind != msgSplitReply {
			return half{}, half{}, fmt.Errorf("dsel: expected split reply from %d, got kind %d", msg.From, kind)
		}
		nLow, nHigh := r.Varint(), r.Varint()
		var below, above pick
		if nLow > 0 {
			below.cand = r.Key()
		}
		if nHigh > 0 {
			above.cand = r.Key()
		}
		if err := r.Err(); err != nil {
			return half{}, half{}, fmt.Errorf("dsel: bad split reply from %d: %w", msg.From, err)
		}
		held := uint64(st.counts[msg.From])
		if nLow > held || nHigh != held-nLow {
			return half{}, half{}, fmt.Errorf("dsel: machine %d split its %d in-range keys into %d + %d",
				msg.From, held, nLow, nHigh)
		}
		below.n, above.n = int64(nLow), int64(nHigh)
		if below.n > 0 && !(st.lo.Less(below.cand) && below.cand.LessEq(p)) ||
			above.n > 0 && !(p.Less(above.cand) && above.cand.LessEq(st.hi)) {
			return half{}, half{}, fmt.Errorf("dsel: machine %d sent a candidate outside its side of the pivot", msg.From)
		}
		low.set(msg.From, below)
		high.set(msg.From, above)
	}
	return low, high, nil
}

// gatherFits reports whether every worker's in-range keys fit one gather
// reply under the link budget, so that a gather costs exactly the two rounds
// of the split it replaces.
func (st *leaderState) gatherFits() bool {
	b := st.m.Bandwidth()
	if b < 0 {
		return true
	}
	for i, n := range st.counts {
		if i != st.m.ID() && gatherReplySize(n) > int64(b-kmachine.MessageOverheadBytes) {
			return false
		}
	}
	return true
}

// gather finishes Algorithm 1 where the search would split again: it
// broadcasts (st.lo, st.hi], collects every key in range, and returns the
// one of rank st.l among them. Two rounds, 2(k−1) messages, one iteration.
// A reply is checked against what the leader already knows — its count must
// be the sender's in-range count and each key must lie in range — so the
// local selection runs over the st.total keys of the range and a malformed
// reply fails the run instead of moving the boundary.
func (st *leaderState) gather() (keys.Key, error) {
	all := make([]keys.Key, 0, st.total)
	for _, key := range st.local {
		if st.lo.Less(key) && key.LessEq(st.hi) {
			all = append(all, key)
		}
	}
	if k := st.m.K(); k > 1 {
		var w wire.Writer
		w.U8(msgGather)
		w.Key(st.lo)
		w.Key(st.hi)
		st.m.Broadcast(w.Bytes())
		st.m.EndRound()
		for _, msg := range st.m.Gather(k - 1) {
			r := wire.NewReader(msg.Payload)
			if kind := r.U8(); kind != msgGatherReply {
				return keys.Key{}, fmt.Errorf("dsel: expected gather reply from %d, got kind %d", msg.From, kind)
			}
			n := r.Varint()
			if err := r.Err(); err != nil {
				return keys.Key{}, fmt.Errorf("dsel: bad gather reply from %d: %w", msg.From, err)
			}
			if n != uint64(st.counts[msg.From]) {
				return keys.Key{}, fmt.Errorf("dsel: machine %d gathered %d keys but holds %d in range",
					msg.From, n, st.counts[msg.From])
			}
			for ; n > 0; n-- {
				key := r.Key()
				if err := r.Err(); err != nil {
					return keys.Key{}, fmt.Errorf("dsel: bad gather reply from %d: %w", msg.From, err)
				}
				if !(st.lo.Less(key) && key.LessEq(st.hi)) {
					return keys.Key{}, fmt.Errorf("dsel: machine %d gathered key %v outside (%v, %v]", msg.From, key, st.lo, st.hi)
				}
				all = append(all, key)
			}
		}
	}
	st.iters++
	return seqselect.MedianOfMedians(all, int(st.l)), nil
}

// apply folds a pivot's count outcome into the state following the
// randomized-selection recurrence: low and high describe (lo, pivot] and
// (pivot, hi], and the side holding the sought rank becomes the active
// range. It returns the final boundary and true when the search is complete.
func (st *leaderState) apply(pivot keys.Key, low, high half) (keys.Key, bool) {
	st.iters++
	switch {
	case low.total == st.l:
		return pivot, true
	case low.total < st.l:
		// Everything in (lo, pivot] is a winner; continue above it.
		st.l -= low.total
		st.lo, st.half = pivot, high
	default:
		// The boundary lies in (lo, pivot]; discard everything above.
		st.hi, st.half = pivot, low
	}
	if st.total == st.l {
		// All remaining in-range keys are winners.
		return st.hi, true
	}
	return keys.Key{}, false
}

// finish broadcasts the boundary and assembles the leader's own result.
func (st *leaderState) finish(boundary keys.Key) Result {
	var w wire.Writer
	w.U8(msgFinished)
	w.Key(boundary)
	w.Varint(uint64(st.iters))
	st.m.Broadcast(w.Bytes())
	return Result{
		Boundary:   boundary,
		Winners:    seqselect.FilterLessEq(st.local, boundary),
		Iterations: st.iters,
	}
}

// ---------------------------------------------------------------------------
// Algorithm 1 leader
// ---------------------------------------------------------------------------

func leadAlg1(m kmachine.Env, local []keys.Key, l int, opts Options) (Result, error) {
	st, err := initLeader(m, local, l)
	if err != nil {
		return Result{}, err
	}
	if st.total == st.l {
		return st.finish(st.hi), nil
	}
	for {
		if st.gatherFits() {
			boundary, err := st.gather()
			if err != nil {
				return Result{}, err
			}
			return st.finish(boundary), nil
		}
		// Pick the pivot machine with probability n_i / total and take the
		// key it already drew uniformly from its in-range keys — uniform
		// overall by Lemma 2.1, with no message exchanged.
		pivot := st.cands[xrand.WeightedChoice(m.Rand(), st.counts)]
		if opts.OnPivot != nil {
			opts.OnPivot(pivot, st.lo, st.hi, st.total)
		}
		low, high, err := st.split(pivot)
		if err != nil {
			return Result{}, err
		}
		if boundary, done := st.apply(pivot, low, high); done {
			return st.finish(boundary), nil
		}
	}
}

// ---------------------------------------------------------------------------
// Saukas–Song leader
// ---------------------------------------------------------------------------

func leadSaukasSong(m kmachine.Env, local []keys.Key, l int) (Result, error) {
	st, err := initLeader(m, local, l)
	if err != nil {
		return Result{}, err
	}
	k := m.K()
	for st.total > st.l {
		// Collect each machine's median of its in-range keys.
		type wm struct {
			median keys.Key
			weight int64
		}
		var medians []wm
		if own, cnt := localMedian(local, st.lo, st.hi); cnt > 0 {
			medians = append(medians, wm{own, cnt})
		}
		if k > 1 {
			var w wire.Writer
			w.U8(msgMedianQuery)
			w.Key(st.lo)
			w.Key(st.hi)
			m.Broadcast(w.Bytes())
			m.EndRound()
			for _, msg := range m.Gather(k - 1) {
				r := wire.NewReader(msg.Payload)
				if kind := r.U8(); kind != msgMedianReply {
					return Result{}, fmt.Errorf("dsel: expected median reply from %d, got kind %d", msg.From, kind)
				}
				cnt := int64(r.Varint())
				if cnt > 0 {
					medians = append(medians, wm{r.Key(), cnt})
				}
				if err := r.Err(); err != nil {
					return Result{}, fmt.Errorf("dsel: bad median reply: %w", err)
				}
			}
		}
		// Weighted median of medians: the smallest median such that the
		// machines at or below it hold at least half the in-range keys.
		sort.Slice(medians, func(a, b int) bool { return medians[a].median.Less(medians[b].median) })
		var cum int64
		pivot := medians[len(medians)-1].median
		for _, wmed := range medians {
			cum += wmed.weight
			if 2*cum >= st.total {
				pivot = wmed.median
				break
			}
		}
		low, err := st.countBelow(pivot)
		if err != nil {
			return Result{}, err
		}
		if boundary, done := st.apply(pivot, low, st.above(low)); done {
			return st.finish(boundary), nil
		}
	}
	return st.finish(st.hi), nil
}

// localMedian returns the lower median of the keys in (lo, hi] and how many
// keys are in range.
func localMedian(local []keys.Key, lo, hi keys.Key) (keys.Key, int64) {
	var inRange []keys.Key
	for _, k := range local {
		if lo.Less(k) && k.LessEq(hi) {
			inRange = append(inRange, k)
		}
	}
	if len(inRange) == 0 {
		return keys.Key{}, 0
	}
	med := seqselect.MedianOfMedians(inRange, (len(inRange)+1)/2)
	return med, int64(len(inRange))
}

// ---------------------------------------------------------------------------
// Binary-search leader
// ---------------------------------------------------------------------------

func leadBinarySearch(m kmachine.Env, local []keys.Key, l int) (Result, error) {
	st, err := initLeader(m, local, l)
	if err != nil {
		return Result{}, err
	}
	// Invariant: the answer (the smallest key K* with count(≤K*) ≥ l) lies
	// in [lo128, hi128]. Counts use the fixed range (MinKey, ·], so the
	// leaderState range fields stay pinned at their initial values.
	lo128, hi128 := keys.MinKey, st.hi
	for lo128.Less(hi128) {
		mid := keys.Midpoint(lo128, hi128)
		low, err := st.countBelow(mid)
		if err != nil {
			return Result{}, err
		}
		st.iters++
		if low.total >= st.l {
			hi128 = mid
		} else {
			lo128 = keys.Inc(mid)
		}
	}
	return st.finish(lo128), nil
}
