package nn

import (
	"repro/internal/tensor"
)

// Sequential is an ordered stack of layers trained and evaluated as one
// model. It is the only model container in this repository; the perception
// networks are all sequential.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential constructs a model from the given layers. Layer names must
// be unique within the model.
func NewSequential(name string, layers ...Layer) *Sequential {
	m := &Sequential{name: name}
	for _, l := range layers {
		m.Add(l)
	}
	return m
}

// Name returns the model name.
func (m *Sequential) Name() string { return m.name }

// Add appends a layer, enforcing name uniqueness.
func (m *Sequential) Add(l Layer) {
	for _, existing := range m.layers {
		if existing.Name() == l.Name() {
			failf("nn: model %q already has a layer named %q", m.name, l.Name())
		}
	}
	m.layers = append(m.layers, l)
}

// Layers returns the layer stack (shared slice; do not mutate).
func (m *Sequential) Layers() []Layer { return m.layers }

// Layer returns the layer with the given name, or nil.
func (m *Sequential) Layer(name string) Layer {
	for _, l := range m.layers {
		if l.Name() == name {
			return l
		}
	}
	return nil
}

// Forward runs the input through every layer in order. A single-sample
// inference returns the last layer's buffer, overwritten by the model's
// next single-sample inference (see Layer.Forward).
func (m *Sequential) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	for _, l := range m.layers {
		x = l.Forward(x, training)
	}
	return x
}

// Backward propagates the output gradient through every layer in reverse
// order and returns the gradient w.r.t. the model input.
func (m *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.layers) - 1; i >= 0; i-- {
		grad = m.layers[i].Backward(grad)
	}
	return grad
}

// Params returns every trainable parameter in layer order.
func (m *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Param returns the parameter with the given fully qualified name, or nil.
func (m *Sequential) Param(name string) *Param {
	for _, p := range m.Params() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// PrunableParams returns the parameters pruning strategies may act on.
func (m *Sequential) PrunableParams() []*Param {
	var ps []*Param
	for _, p := range m.Params() {
		if p.Prunable {
			ps = append(ps, p)
		}
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (m *Sequential) ZeroGrad() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (m *Sequential) ParamCount() int64 {
	var n int64
	for _, p := range m.Params() {
		n += int64(p.Value.Len())
	}
	return n
}

// Describe returns the cost profile of every compute-bearing layer.
func (m *Sequential) Describe() []Info {
	var infos []Info
	for _, l := range m.layers {
		if d, ok := l.(Described); ok {
			infos = append(infos, d.Describe())
		}
	}
	return infos
}

// TotalMACsPerSample sums the dense per-sample MAC counts of all layers.
func (m *Sequential) TotalMACsPerSample() int64 {
	var n int64
	for _, info := range m.Describe() {
		n += info.MACsPerSample
	}
	return n
}
