package points

import "distknn/internal/keys"

// TopL keeps the l smallest Items of a stream by key: a bounded binary
// max-heap whose root is the current cutoff. It is the one accumulator of
// the local top-ℓ stage — the block scan (Set.TopLItems), the k-d tree
// search and the protocol's "keep the ℓ closest" step all push into it —
// and it compares keys.Key directly, with no func-valued ordering, so a
// push compiles to two integer compares per sift level.
//
// The heap lives in the slice Sorted returns, so a whole top-ℓ pass makes
// one allocation.
type TopL struct {
	items []Item // max-heap on Key: items[0] is the largest retained key
}

// NewTopL returns an accumulator for the l smallest items; l < 1 keeps
// nothing. Callers that know how many items they will offer should clamp l
// to that count first: the l slots are reserved up front.
func NewTopL(l int) TopL {
	if l < 1 {
		return TopL{}
	}
	return TopL{items: make([]Item, 0, l)}
}

// Cut returns the key an item must order strictly before to be retained:
// keys.MaxKey while fewer than l items are held, the largest retained key
// after that (MinKey for an accumulator that keeps nothing).
func (t *TopL) Cut() keys.Key {
	if len(t.items) < cap(t.items) {
		return keys.MaxKey
	}
	if len(t.items) == 0 {
		return keys.MinKey
	}
	return t.items[0].Key
}

// Push offers it and reports whether it was retained, evicting the current
// cutoff item once l are held. Callers on a hot path compare against Cut
// themselves first and build the Item only for survivors.
func (t *TopL) Push(it Item) bool {
	h := t.items
	if len(h) < cap(h) {
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
