package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzCodecRoundTrip drives arbitrary byte strings through DecodePacked,
// the decoder the coordinator runs on every worker's share, and checks
// the codec invariants end to end:
//
//   - Whatever decodes is a valid Packed: ids strictly ascending and in
//     int32 range, every score finite and non-zero.
//   - Whatever decodes re-encodes to exactly the input bytes: the
//     decoder accepts canonical payloads only.
//   - Whatever fails, fails with an error wrapping ErrMalformedShare.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePacked(Packed{}))
	f.Add(EncodePacked(Pack(Vector{1: 0.5})))
	f.Add(EncodePacked(Pack(Vector{3: 1, 1: 2, 2: -3, 1 << 20: 1e-9, math.MaxInt32: 7})))
	// unsorted and duplicate ids: negative gaps, 10-byte varints
	f.Add(EncodePacked(Packed{ids: []int32{9, 2, 5}, scores: []float64{9, 2, 5}}))
	f.Add(EncodePacked(Packed{ids: []int32{7, 7}, scores: []float64{1, 2}}))
	// truncated entry
	f.Add(EncodePacked(Pack(Vector{1: 1}))[:6])
	// overlong varint: a gap of 1 written in two bytes
	f.Add([]byte{1, 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(EncodePacked(Packed{ids: []int32{3}, scores: []float64{x}}))
	}
	// an id one past MaxInt32
	f.Add(binary.LittleEndian.AppendUint64(binary.AppendUvarint([]byte{1}, 1<<31), math.Float64bits(1)))
	// a trailing byte
	f.Add(append(EncodePacked(Pack(Vector{4: 0.25})), 0))
	// a share in the fixed-width format the compact one replaced:
	// uint32 count, then (int32 id, float64 score) per entry
	old := binary.LittleEndian.AppendUint32(nil, 2)
	for _, e := range []Entry{{1, 0.5}, {9, 0.25}} {
		old = binary.LittleEndian.AppendUint32(old, uint32(e.ID))
		old = binary.LittleEndian.AppendUint64(old, math.Float64bits(e.Score))
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacked(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedShare) {
				t.Fatalf("decode error %v does not wrap ErrMalformedShare", err)
			}
			return
		}
		for k, x := range p.scores {
			if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("decoder accepted score %v", x)
			}
			if p.ids[k] < 0 || k > 0 && p.ids[k] <= p.ids[k-1] {
				t.Fatalf("decoded ids not ascending non-negative: %v", p.ids)
			}
		}
		if cp := EncodePacked(p); !bytes.Equal(cp, data) {
			t.Fatalf("accepted % x re-encodes to % x", data, cp)
		}
		if EncodedSizePacked(p) != len(data) {
			t.Fatalf("EncodedSizePacked %d for a %d-byte payload", EncodedSizePacked(p), len(data))
		}
	})
}

// TestDecodeRejects: each way a payload can fail to be canonical is
// refused with an error wrapping ErrMalformedShare.
func TestDecodeRejects(t *testing.T) {
	one := func(gap []byte, x float64) []byte {
		return binary.LittleEndian.AppendUint64(append([]byte{1}, gap...), math.Float64bits(x))
	}
	for name, buf := range map[string][]byte{
		"empty":            nil,
		"overlong count":   {0x80, 0x00},
		"overlong gap":     one([]byte{0x81, 0x00}, 1),
		"zero score":       one([]byte{0}, 0),
		"negative zero":    one([]byte{0}, math.Copysign(0, -1)),
		"NaN score":        one([]byte{0}, math.NaN()),
		"+Inf score":       one([]byte{0}, math.Inf(1)),
		"-Inf score":       one([]byte{0}, math.Inf(-1)),
		"id past MaxInt32": one(binary.AppendUvarint(nil, 1<<31), 1),
		"truncated score":  one([]byte{0}, 1)[:8],
		"trailing byte":    append(one([]byte{0}, 1), 0),
		"count past bytes": {2, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
	} {
		if p, err := DecodePacked(buf); !errors.Is(err, ErrMalformedShare) {
			t.Errorf("%s: got %v, %v; want ErrMalformedShare", name, p.Entries(), err)
		}
	}
	// The largest id is accepted, and any entry after it is not.
	top := EncodePacked(Packed{ids: []int32{5, math.MaxInt32}, scores: []float64{1, 2}})
	if _, err := DecodePacked(top); err != nil {
		t.Fatalf("MaxInt32 id refused: %v", err)
	}
	past := binary.LittleEndian.AppendUint64(append(top, 0), math.Float64bits(3))
	past[0] = 3
	if _, err := DecodePacked(past); !errors.Is(err, ErrMalformedShare) {
		t.Fatalf("id past MaxInt32 after a prefix: %v", err)
	}
}

// TestDecodeCountBomb: a 10-byte payload that claims 2³¹ entries fails
// before the decoder allocates anything.
func TestDecodeCountBomb(t *testing.T) {
	buf := make([]byte, 10)
	copy(buf, binary.AppendUvarint(nil, 1<<31))
	if _, err := DecodePacked(buf); !errors.Is(err, ErrMalformedShare) {
		t.Fatalf("count bomb: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { DecodePacked(buf) }); n != 0 {
		t.Fatalf("count bomb allocated %v times per decode", n)
	}
}

// TestEncodedSizeIDs: the wire size is a function of the ids alone, and
// one-byte gaps cost 9 bytes per entry.
func TestEncodedSizeIDs(t *testing.T) {
	for _, c := range []struct {
		ids  []int32
		want int
	}{
		{nil, 1},
		{[]int32{0, 1, 2}, 1 + 3*9},
		{[]int32{127}, 1 + 9},
		{[]int32{128}, 1 + 10},
		{[]int32{math.MaxInt32}, 1 + 5 + 8},
	} {
		scores := make([]float64, len(c.ids))
		for k := range scores {
			scores[k] = 1
		}
		p := Packed{c.ids, scores}
		if got := EncodedSizeIDs(c.ids); got != c.want || len(EncodePacked(p)) != c.want {
			t.Errorf("ids %v: EncodedSizeIDs %d, encoded %d bytes, want %d", c.ids, got, len(EncodePacked(p)), c.want)
		}
	}
}
