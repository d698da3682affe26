package dsel

import (
	"math/rand/v2"

	"distknn/internal/keys"
	"distknn/internal/seqselect"
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

// encodeGatherReply builds the worker's answer to a gather query: the number
// of local keys in (lo, hi] and then every one of them, in input order.
func encodeGatherReply(local []keys.Key, lo, hi keys.Key) []byte {
	var w wire.Writer
	w.U8(msgGatherReply)
	w.Varint(uint64(seqselect.CountInRange(local, lo, hi)))
	for _, k := range local {
		if lo.Less(k) && k.LessEq(hi) {
			w.Key(k)
		}
	}
	return w.Bytes()
}

// gatherReplySize is len(encodeGatherReply) for n keys in range: the kind
// byte, the count's varint and 16 bytes a key.
func gatherReplySize(n int64) int64 {
	return 1 + int64(wire.VarintLen(uint64(n))) + 16*n
}
