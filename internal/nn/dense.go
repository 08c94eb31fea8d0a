package nn

import (
	"repro/internal/tensor"
)

// Dense is a fully connected layer computing y = x·Wᵀ + b for x of shape
// [B, in]. The weight is stored (out × in), so pruning an output neuron
// zeros a weight row and pruning an input feature zeros a column.
type Dense struct {
	name    string
	in, out int
	weight  *Param
	bias    *Param

	lastInput *tensor.Tensor // set by a training Forward, dropped by Backward
	out1      *tensor.Tensor // single-sample inference output, allocated on first use
}

// NewDense constructs a dense layer with He-normal initialized weights and
// zero biases.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	if in <= 0 || out <= 0 {
		failf("nn: Dense %q with non-positive dims in=%d out=%d", name, in, out)
	}
	return &Dense{
		name:   name,
		in:     in,
		out:    out,
		weight: newParam(name+"/weight", tensor.HeNormal(rng, in, out, in), true),
		bias:   newParam(name+"/bias", tensor.New(out), false),
	}
}

// Name returns the layer name.
func (d *Dense) Name() string { return d.name }

// InFeatures returns the input width.
func (d *Dense) InFeatures() int { return d.in }

// OutFeatures returns the output width.
func (d *Dense) OutFeatures() int { return d.out }

// Weight returns the (out × in) weight parameter.
func (d *Dense) Weight() *Param { return d.weight }

// Bias returns the bias parameter.
func (d *Dense) Bias() *Param { return d.bias }

// Forward computes x·Wᵀ + b. A single-sample inference writes into a
// buffer the layer owns.
func (d *Dense) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.in {
		failf("nn: Dense %q input shape %v, want [B %d]", d.name, x.Shape(), d.in)
	}
	if training {
		d.lastInput = x
	}
	var out *tensor.Tensor
	if singleSample(x, training) {
		if d.out1 == nil {
			d.out1 = tensor.New(1, d.out)
		}
		out = d.out1
	} else {
		out = tensor.New(x.Dim(0), d.out)
	}
	tensor.MatMulTransBInto(out, x, d.weight.Value)
	b := d.bias.Value.Data()
	od := out.Data()
	cols := d.out
	for i := 0; i < x.Dim(0); i++ {
		row := od[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += b[j]
		}
	}
	return out
}

// Backward accumulates dW = gradᵀ·x and db = Σ grad rows, and returns
// dx = grad·W. It consumes the training Forward's cached input, so a
// trained model keeps no batch alive; a second Backward needs another
// training Forward.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastInput == nil {
		failf("nn: Dense %q Backward before training Forward", d.name)
	}
	// dW (out×in) += gradᵀ (out×B) · x (B×in)
	dW := tensor.MatMulTransA(grad, d.lastInput)
	d.lastInput = nil
	tensor.AddInPlace(d.weight.Grad, dW)
	// db += column sums of grad.
	tensor.AddInPlace(d.bias.Grad, tensor.SumRows(grad))
	// dx (B×in) = grad (B×out) · W (out×in)
	return tensor.MatMul(grad, d.weight.Value)
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Describe reports the dense layer's cost profile.
func (d *Dense) Describe() Info {
	return Info{
		Name:                 d.name,
		Type:                 "dense",
		ParamCount:           int64(d.in)*int64(d.out) + int64(d.out),
		MACsPerSample:        int64(d.in) * int64(d.out),
		ActivationsPerSample: int64(d.out),
	}
}
