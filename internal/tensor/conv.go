package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution over NCHW tensors.
type ConvGeom struct {
	InC, InH, InW    int // input channels and spatial size
	KH, KW           int // kernel size
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate checks that the geometry is internally consistent and produces a
// positive output size.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("conv geometry: non-positive input dims %+v", g)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("conv geometry: non-positive kernel %+v", g)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("conv geometry: non-positive stride %+v", g)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("conv geometry: negative padding %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("conv geometry: empty output %+v", g)
	}
	return nil
}

// Im2col expands a single image (C×H×W, flattened into src) into a patch
// matrix of shape (C*KH*KW) × (OutH*OutW) written into the provided dst
// tensor. Out-of-bounds (padding) samples contribute zeros. The dst tensor
// must have shape [C*KH*KW, OutH*OutW].
//
// This layout makes convolution a single MatMul with the (OutC × C*KH*KW)
// weight matrix, which is both fast and — critically for this project —
// means *channel-structured pruning zeros whole rows of the weight matrix*,
// so the sparse matmul kernel skips them entirely.
func Im2col(src []float32, g ConvGeom, dst *Tensor) {
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := oh * ow
	if len(dst.shape) != 2 || dst.shape[0] != rows || dst.shape[1] != cols {
		failf("tensor: Im2col dst shape %v, want [%d %d]", dst.shape, rows, cols)
	}
	if len(src) != g.InC*g.InH*g.InW {
		failf("tensor: Im2col src length %d, want %d", len(src), g.InC*g.InH*g.InW)
	}
	r := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				drow := dst.data[r*cols : (r+1)*cols]
				r++
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						for ox := 0; ox < ow; ox++ {
							drow[i] = 0
							i++
						}
						continue
					}
					rowBase := chanBase + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= g.InW {
							drow[i] = 0
						} else {
							drow[i] = src[rowBase+ix]
						}
						i++
					}
				}
			}
		}
	}
}

// Col2im scatter-adds a patch matrix (the gradient counterpart of Im2col)
// back into an image buffer dst of length C*H*W. dst is not cleared; callers
// zero it first when accumulating a fresh gradient.
func Col2im(cols *Tensor, g ConvGeom, dst []float32) {
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	ncols := oh * ow
	if len(cols.shape) != 2 || cols.shape[0] != rows || cols.shape[1] != ncols {
		failf("tensor: Col2im cols shape %v, want [%d %d]", cols.shape, rows, ncols)
	}
	if len(dst) != g.InC*g.InH*g.InW {
		failf("tensor: Col2im dst length %d, want %d", len(dst), g.InC*g.InH*g.InW)
	}
	d := cols.data
	r := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				drow := d[r*ncols : (r+1)*ncols]
				r++
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						i += ow
						continue
					}
					rowBase := chanBase + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix >= 0 && ix < g.InW {
							dst[rowBase+ix] += drow[i]
						}
						i++
					}
				}
			}
		}
	}
}
