package tensor

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// bytesPerRun reports the mean heap bytes one call of f allocates, after
// one warm-up call. Like testing.AllocsPerRun it pins GOMAXPROCS to 1 so
// other goroutines add little to the count.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReadFromAllocationBounds pins what ReadFrom allocates: about twice
// the encoded size for a small tensor, and for a header that claims more
// than the stream delivers, a bounded amount far below the claim.
func TestReadFromAllocationBounds(t *testing.T) {
	var frame bytes.Buffer
	if _, err := New(1, 16, 16).WriteTo(&frame); err != nil {
		t.Fatal(err)
	}
	// Header claiming maxElements (4 GiB of data), followed by 1 KiB.
	inflated := binary.LittleEndian.AppendUint32(nil, tensorMagic)
	inflated = binary.LittleEndian.AppendUint32(inflated, 1)
	inflated = binary.LittleEndian.AppendUint32(inflated, maxElements)
	inflated = append(inflated, make([]byte, 1024)...)
	cases := []struct {
		name    string
		in      []byte
		wantErr bool
		max     uint64
	}{
		{"16x16 frame", frame.Bytes(), false, 2560},
		{"truncated 16x16 frame", frame.Bytes()[:frame.Len()/2], true, 2560},
		{"inflated header", inflated, true, 256 << 10},
	}
	for _, tc := range cases {
		var err error
		got := bytesPerRun(200, func() { _, err = ReadTensor(bytes.NewReader(tc.in)) })
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if got > tc.max {
			t.Errorf("%s: ReadTensor allocates %d B/op, want <= %d", tc.name, got, tc.max)
		}
	}
}

// TestAppendBinaryMatchesWriteTo: the appended encoding is the WriteTo
// encoding, placed after whatever the buffer already held.
func TestAppendBinaryMatchesWriteTo(t *testing.T) {
	x := RandNormal(NewRNG(3), 0, 1, 2, 3, 4)
	var want bytes.Buffer
	if _, err := x.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	got, err := x.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want.Bytes()) || len(got)-6 != x.EncodedSize() {
		t.Fatalf("AppendBinary differs from WriteTo")
	}
}
