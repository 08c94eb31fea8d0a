package nn

import (
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] tensors implemented as
// im2col + matmul. The kernel weight is stored as a (outC × inC·KH·KW)
// matrix, which makes filter pruning (removing an output channel) a
// whole-row zeroing and input-channel pruning a block-column zeroing — both
// of which the sparse matmul kernel exploits.
//
// The layer is constructed for a fixed input geometry; autonomous perception
// pipelines run a fixed camera resolution, so this costs no generality and
// lets Describe report exact MAC counts.
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	outC   int
	weight *Param
	bias   *Param

	// Training caches: set by a training Forward, dropped by the Backward
	// that consumes them, so a trained model keeps no batch alive.
	lastInput *tensor.Tensor
	lastCols  []*tensor.Tensor // per-sample im2col caches from training Forward

	// Inference buffers, allocated on first use: cols is one sample's
	// patch matrix, reused by every inference call; out1 is the output a
	// single-sample inference returns, and res1 its (outC × spatial) view
	// that the matmul writes before the bias add.
	cols, out1, res1 *tensor.Tensor
}

// NewConv2D constructs a convolution layer. geom describes the per-sample
// input; outC is the number of filters.
func NewConv2D(name string, geom tensor.ConvGeom, outC int, rng *tensor.RNG) *Conv2D {
	if err := geom.Validate(); err != nil {
		failf("nn: Conv2D %q: %v", name, err)
	}
	if outC <= 0 {
		failf("nn: Conv2D %q with non-positive outC %d", name, outC)
	}
	k := geom.InC * geom.KH * geom.KW
	return &Conv2D{
		name:   name,
		geom:   geom,
		outC:   outC,
		weight: newParam(name+"/weight", tensor.HeNormal(rng, k, outC, k), true),
		bias:   newParam(name+"/bias", tensor.New(outC), false),
	}
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.name }

// Geom returns the convolution geometry.
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// OutChannels returns the number of filters.
func (c *Conv2D) OutChannels() int { return c.outC }

// Weight returns the (outC × inC·KH·KW) weight parameter.
func (c *Conv2D) Weight() *Param { return c.weight }

// Bias returns the per-filter bias parameter.
func (c *Conv2D) Bias() *Param { return c.bias }

func (c *Conv2D) checkInput(x *tensor.Tensor) int {
	g := c.geom
	if x.Dims() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		failf("nn: Conv2D %q input shape %v, want [B %d %d %d]", c.name, x.Shape(), g.InC, g.InH, g.InW)
	}
	return x.Dim(0)
}

// Forward convolves via im2col + matmul, one sample at a time: each
// sample's (outC × spatial) product already has its output layout, so the
// matmul writes straight into that sample's slice of the output and the
// bias is added in place. Training keeps every sample's patch matrix for
// Backward; inference reuses the layer's one-sample patch matrix, so no
// call keeps batch-sized scratch. Per output element the contraction
// order never depends on the batch, so results are bit-identical however
// samples are batched. A single-sample inference writes into buffers the
// layer owns.
func (c *Conv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	batch := c.checkInput(x)
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	spatial := oh * ow
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := c.outC * spatial
	xd, bias := x.Data(), c.bias.Value.Data()

	var out *tensor.Tensor
	switch {
	case training:
		out = tensor.New(batch, c.outC, oh, ow)
		c.lastInput = x
		c.lastCols = make([]*tensor.Tensor, batch)
	case batch == 1:
		if c.out1 == nil {
			c.out1 = tensor.New(1, c.outC, oh, ow)
			c.res1 = c.out1.Reshape(c.outC, spatial)
		}
		out = c.out1
	default:
		out = tensor.New(batch, c.outC, oh, ow)
	}
	if c.cols == nil && !training {
		c.cols = tensor.New(k, spatial)
	}
	od := out.Data()
	for s := 0; s < batch; s++ {
		cols := c.cols
		if training {
			cols = tensor.New(k, spatial)
			c.lastCols[s] = cols
		}
		res := c.res1
		if out != c.out1 {
			res = tensor.FromSlice(od[s*sampleOut:(s+1)*sampleOut], c.outC, spatial)
		}
		tensor.Im2col(xd[s*sampleIn:(s+1)*sampleIn], g, cols)
		tensor.MatMulBlockedInto(res, c.weight.Value, cols) // (outC × spatial)
		rd := res.Data()
		for oc := 0; oc < c.outC; oc++ {
			b := bias[oc]
			row := rd[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] += b
			}
		}
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input
// gradient. It consumes the training Forward's caches: a second Backward
// needs another training Forward.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil || c.lastCols == nil {
		failf("nn: Conv2D %q Backward before training Forward", c.name)
	}
	batch := c.checkInput(c.lastInput)
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	spatial := oh * ow
	if grad.Dims() != 4 || grad.Dim(0) != batch || grad.Dim(1) != c.outC || grad.Dim(2) != oh || grad.Dim(3) != ow {
		failf("nn: Conv2D %q grad shape %v, want [%d %d %d %d]", c.name, grad.Shape(), batch, c.outC, oh, ow)
	}
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := c.outC * spatial

	dx := tensor.New(batch, g.InC, g.InH, g.InW)
	gd, dxd, bg := grad.Data(), dx.Data(), c.bias.Grad.Data()
	for s := 0; s < batch; s++ {
		gSample := tensor.FromSlice(gd[s*sampleOut:(s+1)*sampleOut], c.outC, spatial)
		// dW += gSample (outC×spatial) · colsᵀ (spatial×k)
		dW := tensor.MatMulTransB(gSample, c.lastCols[s])
		tensor.AddInPlace(c.weight.Grad, dW)
		// db += row sums of gSample.
		for oc := 0; oc < c.outC; oc++ {
			var sum float32
			for _, v := range gd[s*sampleOut+oc*spatial : s*sampleOut+(oc+1)*spatial] {
				sum += v
			}
			bg[oc] += sum
		}
		// dcols = Wᵀ (k×outC) · gSample (outC×spatial), then scatter back.
		dcols := tensor.MatMulTransA(c.weight.Value, gSample)
		tensor.Col2im(dcols, g, dxd[s*sampleIn:(s+1)*sampleIn])
	}
	c.lastInput, c.lastCols = nil, nil
	return dx
}

// Params returns the weight and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Describe reports the convolution's cost profile.
func (c *Conv2D) Describe() Info {
	g := c.geom
	k := int64(g.InC) * int64(g.KH) * int64(g.KW)
	spatial := int64(g.OutH()) * int64(g.OutW())
	return Info{
		Name:                 c.name,
		Type:                 "conv2d",
		ParamCount:           k*int64(c.outC) + int64(c.outC),
		MACsPerSample:        k * int64(c.outC) * spatial,
		ActivationsPerSample: int64(c.outC) * spatial,
	}
}
