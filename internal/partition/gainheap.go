package partition

// gainHeap is an indexed binary max-heap of the unlocked vertices on one
// side of a bisection, ordered by (gain desc, vertex id asc). The two
// sides' heaps share the gain and pos arrays: a vertex sits in at most one
// heap, and pos[v] < 0 means it sits in neither (it is locked). Because
// the order is total, the vertex a query returns does not depend on the
// heap's layout — only on the gains — which is what lets fmRefine pick
// exactly the vertex a full scan would.
type gainHeap struct {
	items []int32 // vertex ids in heap order
	gain  []int64 // per vertex, shared
	pos   []int32 // per vertex: index into the owning heap's items, or -1
	vwgt  []int32 // per vertex, shared
}

// before reports whether a ranks ahead of b: higher gain, then lower id.
func (h *gainHeap) before(a, b int32) bool {
	ga, gb := h.gain[a], h.gain[b]
	return ga > gb || (ga == gb && a < b)
}

// init heapifies items in O(len(items)).
func (h *gainHeap) init() {
	for i, v := range h.items {
		h.pos[v] = int32(i)
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *gainHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

func (h *gainHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.items[i], h.items[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *gainHeap) down(i int) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.before(h.items[r], h.items[c]) {
			c = r
		}
		if !h.before(h.items[c], h.items[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// fix restores the heap order after v's gain changed.
func (h *gainHeap) fix(v int32) {
	i := int(h.pos[v])
	h.up(i)
	h.down(int(h.pos[v]))
}

// remove takes v out of the heap and marks it locked.
func (h *gainHeap) remove(v int32) {
	i := int(h.pos[v])
	last := len(h.items) - 1
	if i != last {
		h.swap(i, last)
	}
	h.items = h.items[:last]
	h.pos[v] = -1
	if i != last {
		h.fix(h.items[i])
	}
}

// bestFit returns the first vertex in heap order whose weight is at most
// slack, or -1 if none fits. It walks the heap depth-first from slot i,
// pruning every subtree whose root already ranks behind the best fit
// found so far (heap order puts the whole subtree behind it) and never
// descending below a vertex that fits (its subtree ranks behind it). When
// every weight is 1 — the finest level — the root either fits or nothing
// does, so the walk is O(1); fmRefine skips a side whose slack is below
// the graph's minimum vertex weight before calling.
func (h *gainHeap) bestFit(i int, slack int64, best int32) int32 {
	if i >= len(h.items) {
		return best
	}
	v := h.items[i]
	if best >= 0 && !h.before(v, best) {
		return best
	}
	if int64(h.vwgt[v]) <= slack {
		return v
	}
	best = h.bestFit(2*i+1, slack, best)
	return h.bestFit(2*i+2, slack, best)
}
