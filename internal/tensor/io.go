package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary serialization format (little-endian):
//
//	magic   uint32  0x544E5352 ("RSNT")
//	ndims   uint32
//	dims    uint32 × ndims
//	data    float32 × product(dims)
//
// The format is intentionally trivial: model reload cost is one of the
// baselines the evaluation measures (experiment F3), so the reader must not
// be artificially slow or artificially clever.

const tensorMagic uint32 = 0x544E5352

const (
	// maxRank and maxElements bound what ReadFrom will accept; real models
	// here are far below both.
	maxRank     = 8
	maxElements = 1 << 30
	// readChunk caps how much ReadFrom requests per io.ReadFull, so a
	// header that *claims* a huge payload cannot force a huge allocation:
	// memory grows with bytes actually delivered, not with the claim. A
	// smaller claim gets a chunk of exactly its size, so decoding a 1 KiB
	// frame costs about 2 KiB, not a 64 KiB chunk.
	readChunk = 64 * 1024
)

// WriteTo serializes t to w in the package binary format with one Write. It
// implements io.WriterTo.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	buf, _ := t.AppendBinary(make([]byte, 0, t.EncodedSize())) // never fails
	n, err := w.Write(buf)
	if err != nil {
		return int64(n), fmt.Errorf("tensor: write: %w", err)
	}
	return int64(n), nil
}

// AppendBinary appends t in the package binary format to b and returns the
// extended slice, so a caller framing t inside a larger message encodes it
// straight into its own buffer. It has the encoding.BinaryAppender shape;
// the error is always nil.
func (t *Tensor) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, t.EncodedSize())
	b = binary.LittleEndian.AppendUint32(b, tensorMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.shape)))
	for _, d := range t.shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	for _, v := range t.data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b, nil
}

// ReadFrom deserializes a tensor from r, replacing t's shape and data. It
// implements io.ReaderFrom.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	hdr := make([]byte, 8)
	rn, err := io.ReadFull(r, hdr)
	n += int64(rn)
	if err != nil {
		return n, fmt.Errorf("tensor: read header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != tensorMagic {
		return n, fmt.Errorf("tensor: bad magic %#x", m)
	}
	ndims := int(binary.LittleEndian.Uint32(hdr[4:]))
	if ndims < 0 || ndims > maxRank {
		return n, fmt.Errorf("tensor: implausible rank %d", ndims)
	}
	dimBuf := make([]byte, 4*ndims)
	rn, err = io.ReadFull(r, dimBuf)
	n += int64(rn)
	if err != nil {
		return n, fmt.Errorf("tensor: read dims: %w", err)
	}
	shape := make([]int, ndims)
	total := 1
	for i := range shape {
		d := int(binary.LittleEndian.Uint32(dimBuf[4*i:]))
		shape[i] = d
		// Overflow-safe product: reject before multiplying past the cap,
		// so adversarial dims cannot wrap around to a small total.
		if d != 0 && total > maxElements/d {
			return n, fmt.Errorf("tensor: implausible element count (dims overflow)")
		}
		total *= d
	}
	if total > maxElements {
		return n, fmt.Errorf("tensor: implausible element count %d", total)
	}
	// Read the payload in bounded chunks and grow data as bytes actually
	// arrive: a truncated stream with an inflated header fails with a
	// proportional allocation, not a 4 GiB one.
	data := make([]float32, 0, min(total, readChunk/4))
	chunk := make([]byte, 4*min(total, readChunk/4))
	for remaining := total; remaining > 0; {
		elems := min(remaining, readChunk/4)
		rn, err = io.ReadFull(r, chunk[:4*elems])
		n += int64(rn)
		if err != nil {
			return n, fmt.Errorf("tensor: read data: %w", err)
		}
		for i := 0; i < 4*elems; i += 4 {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(chunk[i:])))
		}
		remaining -= elems
	}
	t.shape = shape
	t.data = data
	return n, nil
}

// ReadTensor reads a tensor from r in the package binary format.
func ReadTensor(r io.Reader) (*Tensor, error) {
	t := &Tensor{}
	if _, err := t.ReadFrom(r); err != nil {
		return nil, err
	}
	return t, nil
}

// EncodedSize returns the number of bytes WriteTo will produce for t.
func (t *Tensor) EncodedSize() int {
	return 8 + 4*len(t.shape) + 4*len(t.data)
}
