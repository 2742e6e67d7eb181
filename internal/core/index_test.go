package core

import (
	"math"
	"testing"
)

// TestBlockShiftRule: an offset list's block is the largest power of
// two up to 256 whose block−1 longest records still fit a 32-bit delta,
// so no store a reader accepts overflows one, at any node count.
func TestBlockShiftRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		shift uint8
	}{{12_000, 8}, {1_000_000, 8}, {5_000_000, 6}, {1 << 30, 0}, {math.MaxInt32, 0}} {
		if got := blockShift(tc.n); got != tc.shift {
			t.Errorf("n=%d: block shift %d, want %d", tc.n, got, tc.shift)
		}
	}
	for _, n := range []int{1, 2, 1000, 12_000, 5_000_000, 20_000_000, 100_000_000, 1 << 30, math.MaxInt32} {
		s := blockShift(n)
		if (int64(1)<<s-1)*maxRecordLen(n)+1 > math.MaxUint32 {
			t.Errorf("n=%d: %d records of %d bytes overflow a delta", n, int64(1)<<s-1, maxRecordLen(n))
		}
		if s < 8 && (int64(2)<<s-1)*maxRecordLen(n)+1 <= math.MaxUint32 {
			t.Errorf("n=%d: block shift %d is not the largest that fits", n, s)
		}
	}
}

// TestOffsetListRoundTrip stores synthetic record offsets beyond 2^34
// bytes in the lists a 2^30-node and a 5-million-node store get, at the
// block size the rule picks for each (1 and 64): records of the longest
// length, short ones and missing ones all read back exactly, without a
// 32 GiB file.
func TestOffsetListRoundTrip(t *testing.T) {
	for _, n := range []int{1 << 30, 5_000_000} {
		l := newOffsetList(1000, n)
		want := make([]int64, 1000)
		rec := int64(1)<<34 + 12
		for i := range want {
			switch i % 7 {
			case 3:
				continue // no record
			case 0, 5:
				rec += maxRecordLen(n)
			default:
				rec += 24 + int64(i%5)
			}
			want[i] = rec
			l.set(i, rec)
		}
		for i, w := range want {
			if got := l.at(i); got != w {
				t.Fatalf("n=%d, block %d: entry %d reads offset %d, want %d", n, 1<<l.block, i, got, w)
			}
		}
		if want[len(want)-1] <= 1<<34 {
			t.Fatalf("n=%d: the offsets stayed below 2^34", n)
		}
	}
}
