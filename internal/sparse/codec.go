package sparse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The wire format for a vector (a share) is:
//
//	uvarint count
//	count × (uvarint gap, float64 score)   score little-endian
//
// where gap = id − prev − 1 and prev is the previous entry's id (−1
// before the first), so ids ascend strictly by construction. A gap
// below 128 takes one byte (most gaps in a share do) and no gap more
// than five, so an entry takes 9 to 13 bytes. This is the unit in
// which the cluster layer accounts communication cost, mirroring the
// paper's KB-on-the-wire metric. Scores travel as their exact float64
// bits, so a decoded share is bit-identical to the encoded one.
//
// Encoding is CANONICAL and the decoder accepts nothing else: every
// payload DecodePacked accepts re-encodes to the same bytes. It rejects
// non-minimal varints, ids above math.MaxInt32, zero, NaN and infinite
// scores, a count the payload cannot hold, and trailing bytes, each with
// an error wrapping ErrMalformedShare.
//
// Stored vectors keep their own space measure, SpaceBytes, which this
// format does not change.

// ErrMalformedShare is wrapped by every DecodePacked failure: the bytes
// are not a canonical share payload.
var ErrMalformedShare = errors.New("sparse: malformed share")

// The decode failures. They are values, not fmt.Errorf results, so a
// rejected payload costs no allocation however large its claimed count.
var (
	errShareCount    = fmt.Errorf("%w: count exceeds payload", ErrMalformedShare)
	errShareVarint   = fmt.Errorf("%w: truncated or non-minimal varint", ErrMalformedShare)
	errShareID       = fmt.Errorf("%w: id above MaxInt32", ErrMalformedShare)
	errShareScore    = fmt.Errorf("%w: zero or non-finite score", ErrMalformedShare)
	errShareTruncate = fmt.Errorf("%w: truncated entry", ErrMalformedShare)
	errShareTrailing = fmt.Errorf("%w: trailing bytes", ErrMalformedShare)
)

// SpaceBytes is the space measure of a stored vector of n entries,
// whichever store or baseline holds it: 4 + 12n bytes, a uint32 count
// and an (int32 id, float64 score) pair per entry. It is the space
// metric of the paper's tables and does not follow the wire format.
func SpaceBytes(n int) int64 { return 4 + 12*int64(n) }

// EncodedSize returns the wire size of v: the bytes EncodePacked(Pack(v))
// produces. Explicit zeros (possible in a hand-built map, never from
// Set/Add) are not encoded.
func EncodedSize(v Vector) int { return EncodedSizePacked(Pack(v)) }

// EncodedSizePacked returns the number of bytes EncodePacked produces.
func EncodedSizePacked(p Packed) int { return EncodedSizeIDs(p.ids) }

// EncodedSizeIDs returns the wire size of a share whose ids, strictly
// ascending, are ids: the size depends on the ids alone.
func EncodedSizeIDs(ids []int32) int {
	n := uvarintLen(uint64(len(ids))) + 8*len(ids)
	prev := int32(-1)
	for _, id := range ids {
		n += uvarintLen(uint64(id - prev - 1))
		prev = id
	}
	return n
}

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// EncodePacked serializes a packed vector into a fresh buffer of
// exactly its wire size: AppendPacked(nil, p).
func EncodePacked(p Packed) []byte { return AppendPacked(nil, p) }

// AppendPacked appends p's wire encoding — the bytes EncodePacked
// returns — to dst in one sequential pass, growing dst at most once,
// and returns the extended slice. The arrays are already in canonical
// order, so there is no sorting and no map iteration. A server encodes
// each share with it straight into its reply frame.
func AppendPacked(dst []byte, p Packed) []byte {
	size := EncodedSizePacked(p)
	dst = slices.Grow(dst, size)
	buf := dst[len(dst) : len(dst)+size]
	b := buf[binary.PutUvarint(buf, uint64(len(p.ids))):]
	prev := int32(-1)
	for k, id := range p.ids {
		// len(b) >= 9 always holds for a one-byte gap (buf is exactly
		// the wire size); the check lets the compiler drop the bounds
		// checks of the writes.
		gap, raw := uint64(id-prev-1), math.Float64bits(p.scores[k])
		if gap < 0x80 && len(b) >= 9 {
			b[0] = byte(gap)
			binary.LittleEndian.PutUint64(b[1:9], raw)
			b = b[9:]
		} else {
			w := binary.PutUvarint(b, gap)
			binary.LittleEndian.PutUint64(b[w:], raw)
			b = b[w+8:]
		}
		prev = id
	}
	return dst[:len(dst)+size]
}

// expBits is a float64's exponent field: all ones for NaN and ±Inf.
const expBits = 0x7ff0_0000_0000_0000

// DecodePacked parses a canonical payload straight into columnar form
// in one sequential pass. Anything EncodePacked would not have produced
// fails with an error wrapping ErrMalformedShare, so the result is
// always a valid Packed with finite, non-zero scores.
func DecodePacked(buf []byte) (Packed, error) {
	count, off := uvarint(buf)
	if off <= 0 {
		return Packed{}, errShareVarint
	}
	// Every entry takes at least 9 bytes: check before allocating.
	if count > uint64(len(buf)-off)/9 {
		return Packed{}, errShareCount
	}
	ids := make([]int32, count)
	scores := make([]float64, len(ids))
	b := buf[off:]
	prev := int64(-1)
	for k := range ids {
		var gap, raw uint64
		if len(b) >= 9 && b[0] < 0x80 { // the common one-byte gap
			gap, raw = uint64(b[0]), binary.LittleEndian.Uint64(b[1:9])
			b = b[9:]
		} else if len(b) >= 10 && b[1]-1 < 0x7f { // a two-byte gap
			gap, raw = uint64(b[0]&0x7f)|uint64(b[1])<<7, binary.LittleEndian.Uint64(b[2:10])
			b = b[10:]
		} else {
			var w int
			if gap, w = uvarint(b); w <= 0 {
				return Packed{}, errShareVarint
			}
			if gap > math.MaxInt32 {
				return Packed{}, errShareID
			}
			if len(b)-w < 8 {
				return Packed{}, errShareTruncate
			}
			raw = binary.LittleEndian.Uint64(b[w:])
			b = b[w+8:]
		}
		// ±0 has no bits but the sign; NaN and ±Inf fill the exponent.
		if raw<<1 == 0 || raw&expBits == expBits {
			return Packed{}, errShareScore
		}
		if prev += int64(gap) + 1; prev > math.MaxInt32 {
			return Packed{}, errShareID
		}
		ids[k] = int32(prev)
		scores[k] = math.Float64frombits(raw)
	}
	if len(b) != 0 {
		return Packed{}, errShareTrailing
	}
	return Packed{ids, scores}, nil
}

// uvarint decodes a minimal uvarint from the front of buf, returning
// the value and the bytes read; w <= 0 means buf is truncated, the
// value overflows 64 bits, or the encoding is longer than it needs to
// be (a last byte of zero after the first).
func uvarint(buf []byte) (x uint64, w int) {
	x, w = binary.Uvarint(buf)
	if w > 1 && buf[w-1] == 0 {
		return 0, 0
	}
	return x, w
}
