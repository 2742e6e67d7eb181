package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The wire format for a vector is:
//
//	uint32 count
//	count × (int32 id, float64 score)  little-endian
//
// 4 + 12·len(v) bytes total. This is the unit in which the cluster layer
// accounts communication cost, mirroring the paper's KB-on-the-wire
// metric.
//
// Encoding is CANONICAL: entries are written in ascending id order, so
// equal vectors produce byte-identical payloads across repeated
// encodes, and the decoder rejects any other order.

// EncodedSize returns the wire size of v: the bytes EncodePacked(Pack(v))
// produces. Explicit zeros (possible in a hand-built map, never from
// Set/Add) are not encoded.
func EncodedSize(v Vector) int {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	return 4 + 12*n
}

// EncodedSizePacked returns the number of bytes EncodePacked produces.
func EncodedSizePacked(p Packed) int { return 4 + 12*p.Len() }

// EncodePacked serializes a packed vector. The arrays are already in
// canonical order, so this is a single sequential copy — no sorting, no
// map iteration.
func EncodePacked(p Packed) []byte {
	buf := make([]byte, EncodedSizePacked(p))
	binary.LittleEndian.PutUint32(buf, uint32(p.Len()))
	off := 4
	for k, id := range p.ids {
		binary.LittleEndian.PutUint32(buf[off:], uint32(id))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(p.scores[k]))
		off += 12
	}
	return buf
}

// DecodePacked parses a canonical payload straight into columnar form
// in one sequential pass. Zero scores are dropped; ids out of ascending
// order (unsorted or duplicate) are an error, so the result is always a
// valid Packed.
func DecodePacked(buf []byte) (Packed, error) {
	n, err := decodeCount(buf)
	if err != nil {
		return Packed{}, err
	}
	ids := make([]int32, 0, n)
	scores := make([]float64, 0, n)
	off := 4
	for k := 0; k < n; k++ {
		id := int32(binary.LittleEndian.Uint32(buf[off:]))
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		off += 12
		if x == 0 {
			continue
		}
		if len(ids) > 0 && id <= ids[len(ids)-1] {
			return Packed{}, fmt.Errorf("sparse: decode: id %d after %d (ids must ascend)", id, ids[len(ids)-1])
		}
		ids = append(ids, id)
		scores = append(scores, x)
	}
	return Packed{ids, scores}, nil
}

func decodeCount(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("sparse: short buffer: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+12*n {
		return 0, fmt.Errorf("sparse: buffer length %d does not match count %d", len(buf), n)
	}
	return n, nil
}
