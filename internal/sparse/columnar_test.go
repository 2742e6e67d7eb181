package sparse

import (
	"reflect"
	"testing"
)

func TestColumnarRoundTrip(t *testing.T) {
	cases := []struct {
		ids    []int32
		scores []float64
	}{
		{nil, nil},
		{[]int32{3}, []float64{0.5}},
		{[]int32{0, 2, 9}, []float64{1, -2, 3.25}},               // odd count → pad
		{[]int32{1, 5, 7, 2147483647}, []float64{4, 3, 2, 1e-9}}, // even count
		{[]int32{9, 2, 5}, []float64{1, 2, 3}},                   // unordered (plan rows)
	}
	for _, c := range cases {
		buf := AppendColumnar(nil, c.ids, c.scores)
		if len(buf) != EncodedSizeColumnar(len(c.ids)) {
			t.Fatalf("size %d != EncodedSizeColumnar %d", len(buf), EncodedSizeColumnar(len(c.ids)))
		}
		for _, decode := range []func([]byte) ([]int32, []float64, error){DecodeColumnar, ViewColumnar} {
			ids, scores, err := decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(c.ids) || len(scores) != len(c.scores) {
				t.Fatalf("round trip lengths: %d/%d want %d/%d", len(ids), len(scores), len(c.ids), len(c.scores))
			}
			for k := range ids {
				if ids[k] != c.ids[k] || scores[k] != c.scores[k] {
					t.Fatalf("entry %d: (%d,%v) want (%d,%v)", k, ids[k], scores[k], c.ids[k], c.scores[k])
				}
			}
		}
	}
}

func TestColumnarPackedMatchesWireDecode(t *testing.T) {
	v := Vector{}
	for i := int32(0); i < 57; i++ {
		v.Set(i*7%201, float64(i)+0.25)
	}
	p := Pack(v)
	buf := AppendColumnarPacked(nil, p)
	ids, scores, err := ViewColumnar(buf)
	if err != nil {
		t.Fatal(err)
	}
	view, err := PackedView(ids, scores)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(view.Entries(), p.Entries()) {
		t.Fatal("columnar round trip changed entries")
	}
}

// TestViewColumnarAliases: on a little-endian host with an aligned
// buffer, the view must share memory with the payload (the zero-copy
// contract DiskStore's mmap path is built on).
func TestViewColumnarAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host always copies")
	}
	buf := AppendColumnar(nil, []int32{1, 2, 3}, []float64{10, 20, 30})
	ids, scores, err := ViewColumnar(buf)
	if err != nil {
		t.Fatal(err)
	}
	// make's []byte is word-aligned, so the view path must have engaged.
	buf[8] = 99 // ids[0] low byte
	if ids[0] != 99 {
		t.Fatal("ids do not alias the buffer")
	}
	_ = scores
}

// TestViewColumnarMisaligned: a deliberately misaligned buffer must fall
// back to the copying decoder, not fault or return garbage.
func TestViewColumnarMisaligned(t *testing.T) {
	buf := AppendColumnar(nil, []int32{4, 8}, []float64{1.5, 2.5})
	shifted := make([]byte, len(buf)+1)
	copy(shifted[1:], buf)
	ids, scores, err := ViewColumnar(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 4 || ids[1] != 8 || scores[0] != 1.5 || scores[1] != 2.5 {
		t.Fatalf("misaligned decode wrong: %v %v", ids, scores)
	}
}

func TestColumnarRejectsCorruptFraming(t *testing.T) {
	buf := AppendColumnar(nil, []int32{1, 2}, []float64{1, 2})
	for _, bad := range [][]byte{nil, buf[:4], buf[:len(buf)-1], append(append([]byte{}, buf...), 0)} {
		if _, _, err := DecodeColumnar(bad); err == nil {
			t.Fatalf("corrupt framing (%d bytes) accepted", len(bad))
		}
		if _, _, err := ViewColumnar(bad); err == nil {
			t.Fatalf("corrupt framing (%d bytes) accepted by view", len(bad))
		}
	}
}

func TestPackedViewValidates(t *testing.T) {
	if _, err := PackedView([]int32{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := PackedView([]int32{2, 1}, []float64{1, 2}); err == nil {
		t.Fatal("descending ids accepted")
	}
	if _, err := PackedView([]int32{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	p, err := PackedView([]int32{1, 5}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if p.Get(5) != 0.75 || p.Get(2) != 0 {
		t.Fatal("view lookups wrong")
	}
}
