package core

import (
	"iter"
	"math"
	"math/bits"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// The record index an open store file keeps on the heap (parseStore):
// a hub bit per id, the hubs' deal ranks, and three monotone lists of
// record offsets — hub partials by hub ordinal, leaf PPVs by leaf
// ordinal, plan rows by id. At web×1 that is under 9 bytes per node
// (DiskStats.ResidentBytes).

// idSet is a set of node ids, one bit per id.
type idSet []uint64

func newIDSet(n int) idSet { return make(idSet, (n+63)/64) }

func (s idSet) has(u int32) bool { return s[u>>6]&(1<<(u&63)) != 0 }

func (s idSet) add(u int32) { s[u>>6] |= 1 << (u & 63) }

// hubIndex is which ids are hubs and their deal ranks.
type hubIndex struct {
	ids idSet
	// before[w] counts the hubs among the ids below word w of ids, so a
	// hub's ordinal — its position among the hubs in id order — costs
	// one popcount.
	before []int32
	// rank[i] is the deal rank of the hub of ordinal i
	// (hierarchy.Hierarchy.DealRank).
	rank []int32
}

// newHubIndex indexes the hubs of h and their deal ranks.
func newHubIndex(h *hierarchy.Hierarchy) hubIndex {
	ranks := h.Ranks()
	x := hubIndex{ids: newIDSet(len(ranks))}
	for u, r := range ranks {
		if r >= 0 {
			x.ids.add(int32(u))
		}
	}
	x.before = make([]int32, len(x.ids))
	count := int32(0)
	for w, word := range x.ids {
		x.before[w] = count
		count += int32(bits.OnesCount64(word))
	}
	x.rank = make([]int32, 0, count)
	for _, r := range ranks {
		if r >= 0 {
			x.rank = append(x.rank, r)
		}
	}
	return x
}

func (x *hubIndex) isHub(u int32) bool { return x.ids.has(u) }

// ordinal counts the hubs below id u: a hub's position among the hubs,
// and u minus a non-hub's position among the non-hubs.
func (x *hubIndex) ordinal(u int32) int {
	w := u >> 6
	return int(x.before[w]) + bits.OnesCount64(x.ids[w]&(1<<(u&63)-1))
}

// dealt yields every hub, ascending, with its deal rank.
func (x *hubIndex) dealt() iter.Seq2[int32, int32] {
	return func(yield func(int32, int32) bool) {
		i := 0
		for w, word := range x.ids {
			for ; word != 0; word &= word - 1 {
				if !yield(int32(w<<6|bits.TrailingZeros64(word)), x.rank[i]) {
					return
				}
				i++
			}
		}
	}
}

func (x *hubIndex) residentBytes() int64 {
	return 8*int64(cap(x.ids)) + 4*int64(cap(x.before)+cap(x.rank))
}

// offsetList is a monotone list of record offsets, 0 for no record.
// Each entry is a 32-bit delta from the offset of the first record in
// its block of 1<<block entries, kept as 64 bits once per block. A
// block's records lie next to one another in their section (Save
// writes each section in key order), so a block of records no longer
// than a store's longest still fits its deltas (blockShift): the list
// has no size limit of its own.
type offsetList struct {
	base  []int64  // base[b] is block b's first record offset; 0 for none
	delta []uint32 // delta[i] is 1 + offset − base; 0 for no record
	block uint8
}

// newOffsetList returns a list of n entries, all without a record, for
// the records of a store file over nodes ids.
func newOffsetList(n, nodes int) offsetList {
	block := blockShift(nodes)
	return offsetList{
		base:  make([]int64, (n+1<<block-1)>>block),
		delta: make([]uint32, n),
		block: block,
	}
}

// maxRecordLen is the most bytes from one record of a store file over n
// ids to the next that parseStore admits: its key and length, padding
// to an 8-byte offset, and the payload of an n-entry vector.
func maxRecordLen(n int) int64 { return 8 + 7 + int64(sparse.EncodedSizeColumnar(n)) }

// blockShift is log2 of the block length of a store's offset lists: the
// largest power of two up to 256 for which block−1 records of
// maxRecordLen still fit a delta. It is 8 up to about 1.4 million nodes.
func blockShift(nodes int) uint8 {
	shift := uint8(8)
	for shift > 0 && (int64(1)<<shift-1)*maxRecordLen(nodes) >= math.MaxUint32 {
		shift--
	}
	return shift
}

// set records that entry i's record is at offset rec. Entries are set
// in increasing order, each block's first at its lowest offset.
func (l *offsetList) set(i int, rec int64) {
	b := i >> l.block
	if l.base[b] == 0 {
		l.base[b] = rec
	}
	l.delta[i] = uint32(rec-l.base[b]) + 1
}

// at is entry i's record offset, 0 for no record.
func (l *offsetList) at(i int) int64 {
	d := l.delta[i]
	if d == 0 {
		return 0
	}
	return l.base[i>>l.block] + int64(d-1)
}

func (l *offsetList) residentBytes() int64 { return 8*int64(cap(l.base)) + 4*int64(cap(l.delta)) }
