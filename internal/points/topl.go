package points

import "distknn/internal/keys"

// TopL keeps the l smallest Items of a stream by key: a bounded binary
// max-heap whose root is the current cutoff. It is the one accumulator of
// the local top-ℓ stage — the un-indexed scans (Set.TopLItems), the k-d tree
// search and the protocol's "keep the ℓ closest" step all push into it —
// and it compares keys.Key directly, with no func-valued ordering, so a
// push compiles to two integer compares per sift level.
//
// The heap lives in the slice Sorted returns, so a whole top-ℓ pass makes
// one allocation.
//
// A ceiling bounds what is kept from above: only keys strictly below it are
// retained, so the accumulator yields the min(l, #keys below ceil) smallest.
// It is the pruned plan's second wave — a shard that need only return the
// keys under a bound some other shard already proved — and costs nothing
// once the heap is full, because every retained key is then already below
// it.
type TopL struct {
	items []Item   // max-heap on Key: items[0] is the largest retained key
	ceil  keys.Key // the cutoff while fewer than l items are held
}

// NewTopL returns an accumulator for the l smallest items; l < 1 keeps
// nothing. Callers that know how many items they will offer should clamp l
// to that count first: the l slots are reserved up front.
//
// ceil is optional, at most one key: the ceiling. Omitted, it is
// keys.MaxKey, which bounds nothing. Set.TopLItems and kdtree.Tree.KNN take
// the same optional argument and hand it straight through.
func NewTopL(l int, ceil ...keys.Key) TopL {
	if l < 1 {
		return TopL{}
	}
	top := TopL{items: make([]Item, 0, l), ceil: keys.MaxKey}
	if len(ceil) > 0 {
		top.ceil = ceil[0]
	}
	return top
}

// Cut returns the key an item must order strictly before to be retained:
// the ceiling while fewer than l items are held, the largest retained key
// after that (MinKey for an accumulator that keeps nothing).
func (t *TopL) Cut() keys.Key {
	if len(t.items) < cap(t.items) {
		return t.ceil
	}
	if len(t.items) == 0 {
		return keys.MinKey
	}
	return t.items[0].Key
}

// Push offers it and reports whether it was retained, evicting the current
// cutoff item once l are held; a key at or above the ceiling is refused.
// Callers on a hot path compare against Cut themselves first and build the
// Item only for survivors.
func (t *TopL) Push(it Item) bool {
	h := t.items
	if len(h) < cap(h) {
		if !it.Key.Less(t.ceil) {
			return false
		}
		// Sift up from a new leaf.
		h = append(h, it)
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h[parent].Key.Less(it.Key) {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = it
		t.items = h
		return true
	}
	if len(h) == 0 || !it.Key.Less(h[0].Key) {
		return false
	}
	siftDown(h, it)
	return true
}

// Sorted returns the retained items in ascending key order. It sorts the
// heap in place and hands its storage to the caller, leaving the
// accumulator empty.
func (t *TopL) Sorted() []Item {
	h := t.items
	t.items = nil
	for end := len(h) - 1; end > 0; end-- {
		// The root is the largest of h[:end+1]: it belongs at end, and the
		// item it displaces re-enters the shrunken heap from the root.
		last := h[end]
		h[end] = h[0]
		siftDown(h[:end], last)
	}
	return h
}

// siftDown places it into the heap h as if it replaced the root: the hole
// at the root moves down past every larger child, then takes it.
func siftDown(h []Item, it Item) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[c].Key.Less(h[r].Key) {
			c = r
		}
		if !it.Key.Less(h[c].Key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}
