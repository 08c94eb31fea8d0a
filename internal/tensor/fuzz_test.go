package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzReadTensor feeds arbitrary bytes to the binary tensor reader.
// Malformed input must yield an error — never a panic, and never an
// allocation sized by the header's claim rather than the delivered bytes.
// Well-formed input must round-trip bit-exactly (including NaN payloads,
// which is why the check compares serialized bytes, not float values).
func FuzzReadTensor(f *testing.F) {
	// A valid 2×3 tensor, including a NaN and an inf.
	valid := New(2, 3)
	copy(valid.Data(), []float32{0, 1.5, -2.25, float32(math.NaN()), float32(math.Inf(1)), 3e-39})
	var buf bytes.Buffer
	if _, err := valid.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("RSNT"))
	// Header claiming maxElements with no payload: must fail proportionally.
	huge := make([]byte, 12)
	binary.LittleEndian.PutUint32(huge[0:], tensorMagic)
	binary.LittleEndian.PutUint32(huge[4:], 1)
	binary.LittleEndian.PutUint32(huge[8:], maxElements)
	f.Add(huge)
	// Dims whose product overflows int32/int64 if multiplied naively.
	wrap := make([]byte, 8+4*4)
	binary.LittleEndian.PutUint32(wrap[0:], tensorMagic)
	binary.LittleEndian.PutUint32(wrap[4:], 4)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint32(wrap[8+4*i:], 0xFFFF_FFFF)
	}
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, in []byte) {
		var parsed Tensor
		n, err := parsed.ReadFrom(bytes.NewReader(in))
		if err != nil {
			return
		}
		if n > int64(len(in)) {
			t.Fatalf("ReadFrom consumed %d of %d bytes", n, len(in))
		}
		want := 1
		for _, d := range parsed.Shape() {
			want *= d
		}
		if want != parsed.Len() {
			t.Fatalf("shape %v claims %d elements, data has %d", parsed.Shape(), want, parsed.Len())
		}
		// Canonical format: re-encoding must reproduce exactly the bytes
		// consumed, and survive a second round trip.
		var out bytes.Buffer
		if _, err := parsed.WriteTo(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), in[:n]) {
			t.Fatalf("re-encode differs from consumed input")
		}
		back, err := ReadTensor(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		var out2 bytes.Buffer
		if _, err := back.WriteTo(&out2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("round trip is not a fixed point")
		}
	})
}
