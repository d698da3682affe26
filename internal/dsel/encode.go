package dsel

import (
	"math/rand/v2"

	"distknn/internal/keys"
	"distknn/internal/wire"
)

// encodeStats builds the worker's opening statistics message: in the paper's
// notation, (n_i, m_i, M_i) — count, minimum and maximum of the local keys —
// plus one key drawn uniformly from them, the machine's candidate for
// Algorithm 1's first pivot. All three keys are omitted for an empty set.
func encodeStats(rng *rand.Rand, local []keys.Key) []byte {
	var w wire.Writer
	w.U8(msgStats)
	w.Varint(uint64(len(local)))
	if len(local) > 0 {
		mn, mx := local[0], local[0]
		for _, k := range local[1:] {
			if k.Less(mn) {
				mn = k
			}
			if mx.Less(k) {
				mx = k
			}
		}
		w.Key(mn)
		w.Key(mx)
		w.Key(local[rng.IntN(len(local))])
	}
	return w.Bytes()
}

// encodeSplitReply builds the worker's answer to a split query: its count on
// each side of the pivot and, for each non-empty side, its candidate.
func encodeSplitReply(low, high pick) []byte {
	var w wire.Writer
	w.U8(msgSplitReply)
	w.Varint(uint64(low.n))
	w.Varint(uint64(high.n))
	if low.n > 0 {
		w.Key(low.cand)
	}
	if high.n > 0 {
		w.Key(high.cand)
	}
	return w.Bytes()
}

// encodeMedianReply builds the Saukas–Song per-round reply: the number of
// local keys in (lo, hi] and, when non-zero, their lower median.
func encodeMedianReply(local []keys.Key, lo, hi keys.Key) []byte {
	med, cnt := localMedian(local, lo, hi)
	var w wire.Writer
	w.U8(msgMedianReply)
	w.Varint(uint64(cnt))
	if cnt > 0 {
		w.Key(med)
	}
	return w.Bytes()
}
