package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, max(0, x).
type ReLU struct {
	name     string
	lastMask []bool
	out1     *tensor.Tensor // single-sample inference output, allocated on first use
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.name }

// Forward applies max(0, x) elementwise. A single-sample inference writes
// into a buffer the layer owns.
func (r *ReLU) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	var out *tensor.Tensor
	if singleSample(x, training) {
		if r.out1 == nil || !tensor.SameShape(r.out1, x) {
			r.out1 = tensor.New(x.Shape()...)
		}
		out = r.out1
	} else {
		out = tensor.New(x.Shape()...)
	}
	xd, od := x.Data(), out.Data()
	if training && len(r.lastMask) != len(xd) {
		r.lastMask = make([]bool, len(xd))
	}
	for i, v := range xd {
		pos := v > 0
		if pos {
			od[i] = v
		} else {
			od[i] = 0
		}
		if training {
			r.lastMask[i] = pos
		}
	}
	return out
}

// Backward gates the incoming gradient by the activation mask.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastMask == nil || len(r.lastMask) != grad.Len() {
		failf("nn: ReLU %q Backward before training Forward", r.name)
	}
	out := tensor.New(grad.Shape()...)
	gd, od := grad.Data(), out.Data()
	for i, on := range r.lastMask {
		if on {
			od[i] = gd[i]
		}
	}
	return out
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// LeakyReLU is max(x, alpha·x) with a small positive slope alpha for
// negative inputs.
type LeakyReLU struct {
	name     string
	alpha    float32
	lastMask []bool
}

// NewLeakyReLU constructs a LeakyReLU with the given negative slope.
func NewLeakyReLU(name string, alpha float32) *LeakyReLU {
	if alpha < 0 || alpha >= 1 {
		failf("nn: LeakyReLU %q alpha %v out of [0,1)", name, alpha)
	}
	return &LeakyReLU{name: name, alpha: alpha}
}

// Name returns the layer name.
func (l *LeakyReLU) Name() string { return l.name }

// Alpha returns the negative-side slope.
func (l *LeakyReLU) Alpha() float32 { return l.alpha }

// Forward applies the leaky rectifier elementwise.
func (l *LeakyReLU) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	if training && len(l.lastMask) != len(xd) {
		l.lastMask = make([]bool, len(xd))
	}
	for i, v := range xd {
		pos := v > 0
		if pos {
			od[i] = v
		} else {
			od[i] = l.alpha * v
		}
		if training {
			l.lastMask[i] = pos
		}
	}
	return out
}

// Backward scales the incoming gradient by 1 or alpha.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastMask == nil || len(l.lastMask) != grad.Len() {
		failf("nn: LeakyReLU %q Backward before training Forward", l.name)
	}
	out := tensor.New(grad.Shape()...)
	gd, od := grad.Data(), out.Data()
	for i, on := range l.lastMask {
		if on {
			od[i] = gd[i]
		} else {
			od[i] = l.alpha * gd[i]
		}
	}
	return out
}

// Params returns nil: LeakyReLU has no parameters.
func (l *LeakyReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	name    string
	lastOut *tensor.Tensor
}

// NewTanh constructs a Tanh layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name returns the layer name.
func (t *Tanh) Name() string { return t.name }

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := x.Map(func(v float32) float32 { return float32(math.Tanh(float64(v))) })
	if training {
		t.lastOut = out
	}
	return out
}

// Backward multiplies the gradient by 1 - tanh²(x).
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if t.lastOut == nil || t.lastOut.Len() != grad.Len() {
		failf("nn: Tanh %q Backward before training Forward", t.name)
	}
	out := tensor.New(grad.Shape()...)
	gd, od, yd := grad.Data(), out.Data(), t.lastOut.Data()
	for i, g := range gd {
		od[i] = g * (1 - yd[i]*yd[i])
	}
	return out
}

// Params returns nil: Tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }

// Softmax normalizes the last dimension of a 2-D input into a probability
// distribution. It is intended for inference-time probability readout; the
// training path uses the fused softmax-cross-entropy loss instead, so
// Backward is deliberately unsupported.
type Softmax struct {
	name string
}

// NewSoftmax constructs a Softmax layer.
func NewSoftmax(name string) *Softmax { return &Softmax{name: name} }

// Name returns the layer name.
func (s *Softmax) Name() string { return s.name }

// Forward applies a row-wise softmax.
func (s *Softmax) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	return tensor.SoftmaxRows(x)
}

// Backward panics: use the fused softmax-cross-entropy loss for training.
func (s *Softmax) Backward(grad *tensor.Tensor) *tensor.Tensor {
	failf("nn: Softmax %q does not support Backward; train with the fused cross-entropy loss", s.name)
	return nil // unreachable: failf always panics
}

// Params returns nil: Softmax has no parameters.
func (s *Softmax) Params() []*Param { return nil }
