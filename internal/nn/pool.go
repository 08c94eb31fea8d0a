package nn

import (
	"repro/internal/tensor"
)

// MaxPool2D performs non-overlapping-or-strided max pooling over
// [B, C, H, W] tensors for a fixed per-sample geometry.
type MaxPool2D struct {
	name             string
	c, h, w          int
	kh, kw           int
	strideH, strideW int

	lastArg   []int // flat input index of each output's max, for Backward
	lastShape []int
	out1      *tensor.Tensor // single-sample inference output, allocated on first use
}

// NewMaxPool2D constructs a max pooling layer for inputs of shape [B,c,h,w].
func NewMaxPool2D(name string, c, h, w, kh, kw, strideH, strideW int) *MaxPool2D {
	if c <= 0 || h <= 0 || w <= 0 || kh <= 0 || kw <= 0 || strideH <= 0 || strideW <= 0 {
		failf("nn: MaxPool2D %q non-positive geometry", name)
	}
	if kh > h || kw > w {
		failf("nn: MaxPool2D %q kernel %dx%d exceeds input %dx%d", name, kh, kw, h, w)
	}
	return &MaxPool2D{name: name, c: c, h: h, w: w, kh: kh, kw: kw, strideH: strideH, strideW: strideW}
}

// Name returns the layer name.
func (m *MaxPool2D) Name() string { return m.name }

// Config returns the construction parameters (channels, input size, kernel,
// stride); model-transformation passes use it to rebuild the layer for a
// different channel count.
func (m *MaxPool2D) Config() (c, h, w, kh, kw, strideH, strideW int) {
	return m.c, m.h, m.w, m.kh, m.kw, m.strideH, m.strideW
}

// OutH returns the pooled height.
func (m *MaxPool2D) OutH() int { return (m.h-m.kh)/m.strideH + 1 }

// OutW returns the pooled width.
func (m *MaxPool2D) OutW() int { return (m.w-m.kw)/m.strideW + 1 }

// Forward max-pools each channel plane. A single-sample inference writes
// into a buffer the layer owns.
func (m *MaxPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != m.c || x.Dim(2) != m.h || x.Dim(3) != m.w {
		failf("nn: MaxPool2D %q input shape %v, want [B %d %d %d]", m.name, x.Shape(), m.c, m.h, m.w)
	}
	batch := x.Dim(0)
	oh, ow := m.OutH(), m.OutW()
	var out *tensor.Tensor
	if singleSample(x, training) {
		if m.out1 == nil {
			m.out1 = tensor.New(1, m.c, oh, ow)
		}
		out = m.out1
	} else {
		out = tensor.New(batch, m.c, oh, ow)
	}
	if training {
		m.lastArg = make([]int, out.Len())
		m.lastShape = x.Shape()
	}
	xd, od := x.Data(), out.Data()
	planeIn := m.h * m.w
	oi := 0
	for s := 0; s < batch; s++ {
		for c := 0; c < m.c; c++ {
			base := (s*m.c + c) * planeIn
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy0, ix0 := oy*m.strideH, ox*m.strideW
					best := xd[base+iy0*m.w+ix0]
					bestIdx := base + iy0*m.w + ix0
					for ky := 0; ky < m.kh; ky++ {
						rowBase := base + (iy0+ky)*m.w
						for kx := 0; kx < m.kw; kx++ {
							idx := rowBase + ix0 + kx
							if xd[idx] > best {
								best = xd[idx]
								bestIdx = idx
							}
						}
					}
					od[oi] = best
					if training {
						m.lastArg[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to the input position that won the
// max.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.lastArg == nil || len(m.lastArg) != grad.Len() {
		failf("nn: MaxPool2D %q Backward before training Forward", m.name)
	}
	dx := tensor.New(m.lastShape...)
	dd, gd := dx.Data(), grad.Data()
	for i, src := range m.lastArg {
		dd[src] += gd[i]
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// Describe reports the pooling layer's cost profile (comparisons counted as
// MAC-equivalents).
func (m *MaxPool2D) Describe() Info {
	spatial := int64(m.OutH()) * int64(m.OutW())
	return Info{
		Name:                 m.name,
		Type:                 "maxpool2d",
		MACsPerSample:        int64(m.c) * spatial * int64(m.kh) * int64(m.kw),
		ActivationsPerSample: int64(m.c) * spatial,
	}
}

// GlobalAvgPool2D averages each channel plane of a [B, C, H, W] tensor down
// to a single value, producing [B, C].
type GlobalAvgPool2D struct {
	name    string
	c, h, w int
}

// NewGlobalAvgPool2D constructs a global average pooling layer.
func NewGlobalAvgPool2D(name string, c, h, w int) *GlobalAvgPool2D {
	if c <= 0 || h <= 0 || w <= 0 {
		failf("nn: GlobalAvgPool2D %q non-positive geometry", name)
	}
	return &GlobalAvgPool2D{name: name, c: c, h: h, w: w}
}

// Name returns the layer name.
func (g *GlobalAvgPool2D) Name() string { return g.name }

// Config returns the construction parameters.
func (g *GlobalAvgPool2D) Config() (c, h, w int) { return g.c, g.h, g.w }

// Forward averages each plane.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != g.c || x.Dim(2) != g.h || x.Dim(3) != g.w {
		failf("nn: GlobalAvgPool2D %q input shape %v, want [B %d %d %d]", g.name, x.Shape(), g.c, g.h, g.w)
	}
	batch := x.Dim(0)
	plane := g.h * g.w
	inv := 1 / float32(plane)
	out := tensor.New(batch, g.c)
	xd, od := x.Data(), out.Data()
	for i := 0; i < batch*g.c; i++ {
		var s float32
		for _, v := range xd[i*plane : (i+1)*plane] {
			s += v
		}
		od[i] = s * inv
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (g *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch := grad.Dim(0)
	plane := g.h * g.w
	inv := 1 / float32(plane)
	dx := tensor.New(batch, g.c, g.h, g.w)
	gd, dd := grad.Data(), dx.Data()
	for i := 0; i < batch*g.c; i++ {
		v := gd[i] * inv
		row := dd[i*plane : (i+1)*plane]
		for j := range row {
			row[j] = v
		}
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// Describe reports the layer's cost profile.
func (g *GlobalAvgPool2D) Describe() Info {
	return Info{
		Name:                 g.name,
		Type:                 "gap2d",
		MACsPerSample:        int64(g.c) * int64(g.h) * int64(g.w),
		ActivationsPerSample: int64(g.c),
	}
}

// Flatten reshapes [B, C, H, W] (or any ≥2-D input) to [B, F].
type Flatten struct {
	name      string
	lastShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name returns the layer name.
func (f *Flatten) Name() string { return f.name }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() < 2 {
		failf("nn: Flatten %q input shape %v, want ≥2-D", f.name, x.Shape())
	}
	if training {
		f.lastShape = x.Shape()
	}
	batch := x.Dim(0)
	return x.Reshape(batch, x.Len()/batch)
}

// Backward restores the pre-flatten shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		failf("nn: Flatten %q Backward before training Forward", f.name)
	}
	return grad.Reshape(f.lastShape...)
}

// Params returns nil: flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
