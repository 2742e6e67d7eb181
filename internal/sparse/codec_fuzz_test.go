package sparse

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzCodecRoundTrip drives arbitrary byte strings through DecodePacked
// and checks the codec invariants end to end:
//
//   - Whatever decodes is a valid Packed: ids strictly ascending, no
//     explicit zeros. Unsorted and duplicate ids are rejected.
//   - Whatever decodes re-encodes canonically: EncodePacked gives back
//     the input minus its zero-score entries, and re-decoding the
//     canonical bytes is a fixed point.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePacked(Packed{}))
	f.Add(EncodePacked(Pack(Vector{1: 0.5})))
	f.Add(EncodePacked(Pack(Vector{3: 1, 1: 2, 2: -3, 1 << 20: 1e-9})))
	// zero-score entry on the wire (must be dropped)
	zero := make([]byte, 16)
	binary.LittleEndian.PutUint32(zero, 1)
	binary.LittleEndian.PutUint32(zero[4:], 42)
	f.Add(zero)
	// unsorted ids
	f.Add(EncodePacked(Packed{ids: []int32{9, 2, 5}, scores: []float64{9, 2, 5}}))
	// duplicate ids
	f.Add(EncodePacked(Packed{ids: []int32{7, 7}, scores: []float64{1, 2}}))
	// truncated frame
	f.Add(EncodePacked(Pack(Vector{1: 1}))[:10])

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacked(data)
		if err != nil {
			return
		}
		for k, x := range p.scores {
			if x == 0 {
				t.Fatal("decoder kept an explicit zero")
			}
			if k > 0 && p.ids[k] <= p.ids[k-1] {
				t.Fatalf("decoded ids not strictly ascending: %v", p.ids)
			}
		}
		cp := EncodePacked(p)
		if !bytes.Equal(cp, dropZeros(data)) {
			t.Fatalf("canonical encoding % x is not the input minus zeros % x", cp, data)
		}
		p2, err := DecodePacked(cp)
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v", err)
		}
		if !bytes.Equal(EncodePacked(p2), cp) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// dropZeros returns a well-framed payload without its zero-score
// entries.
func dropZeros(buf []byte) []byte {
	out := []byte{0, 0, 0, 0}
	n := 0
	for off := 4; off < len(buf); off += 12 {
		if math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:])) != 0 {
			out = append(out, buf[off:off+12]...)
			n++
		}
	}
	binary.LittleEndian.PutUint32(out, uint32(n))
	return out
}
