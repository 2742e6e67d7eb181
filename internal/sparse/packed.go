package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Packed is the immutable, columnar representation of a sparse vector:
// ids sorted strictly ascending, scores parallel to them. It is the
// storage and wire type for every pre-computed object on the hot path —
// hub partial vectors, skeleton vectors, leaf PPVs, and query-time
// shares. Compared with the map Vector it trades mutability for
// cache-friendly sequential folds, binary-search point lookups,
// allocation-free iteration, and a canonical byte encoding (sorted
// arrays serialize directly, so identical values always produce
// identical bytes).
//
// The zero value is the empty vector. Packed values share their backing
// arrays on assignment; treat them as read-only.
type Packed struct {
	ids    []int32
	scores []float64
}

// Pack converts a map Vector into its canonical packed form, dropping
// explicit zeros.
func Pack(v Vector) Packed {
	ids := make([]int32, 0, len(v))
	for i, x := range v {
		if x != 0 {
			ids = append(ids, i)
		}
	}
	slices.Sort(ids)
	scores := make([]float64, len(ids))
	for k, i := range ids {
		scores[k] = v[i]
	}
	return Packed{ids, scores}
}

// PackEntries builds a Packed from (id, score) pairs in any order,
// dropping zero scores. Duplicate ids are rejected: entries of a vector
// are a set, and silently summing or overwriting would hide caller bugs.
//
// The sort runs over int64 keys packing (id, input index) so the hot
// path — every pre-computed vector passes through here — uses the
// specialized integer sort instead of a comparator over 12-byte
// structs. (Requires len(es) < 2³²; a vector has at most 2³¹ ids.)
func PackEntries(es []Entry) (Packed, error) {
	keys := make([]int64, 0, len(es))
	for i, e := range es {
		if e.Score != 0 {
			keys = append(keys, int64(e.ID)<<32|int64(uint32(i)))
		}
	}
	slices.Sort(keys)
	ids := make([]int32, len(keys))
	scores := make([]float64, len(keys))
	for k, key := range keys {
		id := int32(key >> 32)
		if k > 0 && id == ids[k-1] {
			return Packed{}, fmt.Errorf("sparse: duplicate id %d in entries", id)
		}
		ids[k] = id
		scores[k] = es[uint32(key)].Score
	}
	return Packed{ids, scores}, nil
}

// PackFromDenseIDs builds a Packed from the values of dense at the given
// ids, dropping zeros. ids must be unique; they are sorted in place.
// This is the drain step of the sparse-frontier push kernels: cost is
// O(t log t) in the touched count t, never O(len(dense)).
func PackFromDenseIDs(ids []int32, dense []float64) Packed {
	slices.Sort(ids)
	outIDs := make([]int32, 0, len(ids))
	scores := make([]float64, 0, len(ids))
	for _, id := range ids {
		if x := dense[id]; x != 0 {
			outIDs = append(outIDs, id)
			scores = append(scores, x)
		}
	}
	return Packed{outIDs, scores}
}

// InRange reports whether every id lies in [0, n) — an O(1) check
// thanks to the sorted invariant. Callers folding untrusted data (a
// store file, a wire payload) into a dense accumulator sized for n
// nodes must check this first: a corrupt id would otherwise index out
// of the scratch array.
func (p Packed) InRange(n int) bool {
	if len(p.ids) == 0 {
		return true
	}
	return p.ids[0] >= 0 && int(p.ids[len(p.ids)-1]) < n
}

// Unpack converts back to a map Vector (a fresh, exactly-sized map).
func (p Packed) Unpack() Vector {
	v := make(Vector, len(p.ids))
	for k, i := range p.ids {
		v[i] = p.scores[k]
	}
	return v
}

// Len reports the number of non-zero entries.
func (p Packed) Len() int { return len(p.ids) }

// Get returns the value at id (0 when absent) by binary search.
func (p Packed) Get(id int32) float64 {
	lo, hi := 0, len(p.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.ids) && p.ids[lo] == id {
		return p.scores[lo]
	}
	return 0
}

// At returns the k-th entry in id order.
func (p Packed) At(k int) Entry { return Entry{p.ids[k], p.scores[k]} }

// ForEach calls f for every entry in ascending id order.
func (p Packed) ForEach(f func(id int32, score float64)) {
	for k, i := range p.ids {
		f(i, p.scores[k])
	}
}

// Entries returns the entries sorted by id ascending (a fresh slice).
func (p Packed) Entries() []Entry {
	es := make([]Entry, len(p.ids))
	for k := range p.ids {
		es[k] = Entry{p.ids[k], p.scores[k]}
	}
	return es
}

// Clone deep-copies the backing arrays.
func (p Packed) Clone() Packed {
	ids := make([]int32, len(p.ids))
	scores := make([]float64, len(p.scores))
	copy(ids, p.ids)
	copy(scores, p.scores)
	return Packed{ids, scores}
}

// CopyTo copies p's columns into ids and scores, each of which must
// hold p.Len() elements: how a store moves a vector into its own arena.
func (p Packed) CopyTo(ids []int32, scores []float64) {
	copy(ids, p.ids)
	copy(scores, p.scores)
}

// Sum returns the total mass Σ p_i.
func (p Packed) Sum() float64 {
	var s float64
	for _, x := range p.scores {
		s += x
	}
	return s
}

// L1 returns the l1 norm Σ|p_i|.
func (p Packed) L1() float64 {
	var s float64
	for _, x := range p.scores {
		s += math.Abs(x)
	}
	return s
}

// Truncated returns the vector without the entries of absolute value
// below min, plus the number dropped — the packed analogue of
// Store.Truncate. When nothing is droppable the receiver is returned
// as-is (sharing is safe: Packed is immutable).
func (p Packed) Truncated(min float64) (Packed, int) {
	drop := 0
	for _, x := range p.scores {
		if x < min && x > -min {
			drop++
		}
	}
	if drop == 0 {
		return p, 0
	}
	ids := make([]int32, 0, len(p.ids)-drop)
	scores := make([]float64, 0, len(p.scores)-drop)
	for k, x := range p.scores {
		if x < min && x > -min {
			continue
		}
		ids = append(ids, p.ids[k])
		scores = append(scores, x)
	}
	return Packed{ids, scores}, drop
}

// TopK returns the k highest-scoring entries, ties broken by smaller id,
// in O(n log k) with a bounded min-heap.
func (p Packed) TopK(k int) []Entry {
	sel := newTopKSelector(k)
	for i, id := range p.ids {
		sel.offer(id, p.scores[i])
	}
	return sel.take()
}

// MergePacked sums k packed vectors by streaming merge of their sorted
// id columns — the coordinator's "sum the shares" fold, no maps, no
// rehashing. Entries that cancel to exactly zero are dropped so the
// result stays canonical. A single-part merge returns that part as-is:
// Packed is immutable, so sharing is safe and saves the copy on
// one-machine clusters.
func MergePacked(parts []Packed) Packed {
	switch len(parts) {
	case 0:
		return Packed{}
	case 1:
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	ids := make([]int32, 0, total)
	scores := make([]float64, 0, total)
	// cursor per stream; pick the minimum head id each step. The stream
	// count is the machine count (small), so a linear scan beats heap
	// bookkeeping.
	cur := make([]int, len(parts))
	for {
		min := int32(math.MaxInt32)
		found := false
		for s, p := range parts {
			if cur[s] < p.Len() && (!found || p.ids[cur[s]] < min) {
				min = p.ids[cur[s]]
				found = true
			}
		}
		if !found {
			return Packed{ids, scores}
		}
		var sum float64
		for s, p := range parts {
			if cur[s] < p.Len() && p.ids[cur[s]] == min {
				sum += p.scores[cur[s]]
				cur[s]++
			}
		}
		if sum != 0 {
			ids = append(ids, min)
			scores = append(scores, sum)
		}
	}
}

// Accumulator is a reusable dense scratch buffer for query-time folds:
// adds are O(1) array writes (no hashing, no rehash growth), and the
// result drains out as a canonical Packed or map Vector. Touched slots
// are tracked in a list and invalidated by epoch stamps, so Reset is
// O(1) and a pooled accumulator never leaks values across queries.
//
// The scratch is dense: each accumulator pins 12 bytes per node id, and
// concurrent queries each hold one, so peak accumulator memory is
// 12·n·(in-flight queries) bytes. That is the deliberate trade for
// hash-free folds at the graph sizes this module targets; a
// billion-node deployment would want a sparse fallback above a node
// threshold.
//
// Not safe for concurrent use; acquire one per goroutine.
type Accumulator struct {
	scratch []float64
	stamp   []uint32
	touched []int32
	epoch   uint32
}

// accPool recycles accumulators across queries. Capacity follows the
// largest graph seen; Acquire grows the scratch when needed.
var accPool = sync.Pool{New: func() any { return &Accumulator{} }}

// AcquireAccumulator returns a pooled accumulator ready for ids in
// [0, n). Call Release when done folding.
func AcquireAccumulator(n int) *Accumulator {
	a := accPool.Get().(*Accumulator)
	a.Reset(n)
	return a
}

// Release returns the accumulator to the pool. The caller must not use
// it afterwards.
func (a *Accumulator) Release() { accPool.Put(a) }

// Reset prepares the accumulator for ids in [0, n), discarding any
// previous contents without touching the scratch array.
func (a *Accumulator) Reset(n int) {
	if cap(a.scratch) < n {
		a.scratch = make([]float64, n)
		a.stamp = make([]uint32, n)
		a.epoch = 0
	}
	a.scratch = a.scratch[:cap(a.scratch)]
	a.stamp = a.stamp[:cap(a.stamp)]
	a.touched = a.touched[:0]
	a.epoch++
	if a.epoch == 0 { // stamp wrap: all stamps are stale, clear them
		clear(a.stamp)
		a.epoch = 1
	}
}

// Add accumulates x into the slot at id. id must be within the range
// given to Reset/Acquire.
func (a *Accumulator) Add(id int32, x float64) {
	if a.stamp[id] != a.epoch {
		a.stamp[id] = a.epoch
		a.scratch[id] = x
		a.touched = append(a.touched, id)
		return
	}
	a.scratch[id] += x
}

// AddPacked folds c·p into the accumulator — the hot inner loop of
// every query: one sequential pass over the columnar arrays.
func (a *Accumulator) AddPacked(p Packed, c float64) {
	if c == 0 {
		return
	}
	for k, id := range p.ids {
		a.Add(id, c*p.scores[k])
	}
}

// AddVector folds c·v into the accumulator.
func (a *Accumulator) AddVector(v Vector, c float64) {
	if c == 0 {
		return
	}
	for id, x := range v {
		a.Add(id, c*x)
	}
}

// Get returns the accumulated value at id (0 for any id outside the
// scratch range).
func (a *Accumulator) Get(id int32) float64 {
	if id < 0 || int(id) >= len(a.stamp) || a.stamp[id] != a.epoch {
		return 0
	}
	return a.scratch[id]
}

// Len reports the number of touched slots (including exact-zero
// cancellations, which are dropped on drain).
func (a *Accumulator) Len() int { return len(a.touched) }

// Packed drains the accumulator into a canonical Packed: the touched
// list is sorted once, zeros from cancellation are dropped. The
// accumulator remains valid (and unchanged) afterwards.
func (a *Accumulator) Packed() Packed {
	slices.Sort(a.touched)
	ids := make([]int32, 0, len(a.touched))
	scores := make([]float64, 0, len(a.touched))
	for _, id := range a.touched {
		if x := a.scratch[id]; x != 0 {
			ids = append(ids, id)
			scores = append(scores, x)
		}
	}
	return Packed{ids, scores}
}

// Vector drains the accumulator into a fresh, exactly-sized map Vector.
func (a *Accumulator) Vector() Vector {
	v := make(Vector, len(a.touched))
	for _, id := range a.touched {
		if x := a.scratch[id]; x != 0 {
			v[id] = x
		}
	}
	return v
}

// TopK returns the k highest-scoring accumulated entries (ties to the
// smaller id) without draining.
func (a *Accumulator) TopK(k int) []Entry {
	sel := newTopKSelector(k)
	for _, id := range a.touched {
		if x := a.scratch[id]; x != 0 {
			sel.offer(id, x)
		}
	}
	return sel.take()
}

// topKSelector is a bounded min-heap of the k best entries seen so far:
// O(n log k) instead of the O(n log n) full sort, which is the
// per-request cost the gateway pays on every ?topk=K query. The heap
// root is the worst kept entry (lowest score; ties prefer evicting the
// larger id).
type topKSelector struct {
	k    int
	heap []Entry
}

func newTopKSelector(k int) *topKSelector {
	if k < 0 {
		k = 0
	}
	return &topKSelector{k: k, heap: make([]Entry, 0, min(k, 64))}
}

// worse reports whether a ranks below b (a would be evicted first).
func worse(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func (s *topKSelector) offer(id int32, score float64) {
	e := Entry{id, score}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, e)
		// sift up
		i := len(s.heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(s.heap[i], s.heap[parent]) {
				break
			}
			s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
			i = parent
		}
		return
	}
	if s.k == 0 || !worse(s.heap[0], e) {
		return // e is no better than the current worst
	}
	s.heap[0] = e
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s.heap) && worse(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < len(s.heap) && worse(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}

// take returns the kept entries ordered by score descending, ties by
// smaller id — the presentation order of every TopK in the module.
func (s *topKSelector) take() []Entry {
	es := s.heap
	sort.Slice(es, func(a, b int) bool { return worse(es[b], es[a]) })
	return es
}
