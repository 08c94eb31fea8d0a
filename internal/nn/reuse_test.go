package nn_test

import (
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// reuseNet is the obstacle net's layer stack: every layer kind that owns
// single-sample inference buffers, and Flatten's view between them.
func reuseNet(seed int64) *nn.Sequential {
	rng := tensor.NewRNG(seed)
	g := tensor.ConvGeom{InC: 1, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	return nn.NewSequential("reusenet",
		nn.NewConv2D("conv1", g, 8, rng),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 8, 16, 16, 2, 2, 2, 2),
		nn.NewFlatten("flat"),
		nn.NewDense("fc1", 8*8*8, 24, rng),
		nn.NewReLU("relu2"),
		nn.NewDense("fc2", 24, 2, rng),
	)
}

// reuseBatch returns 64 random [1,16,16] samples and their (unused) labels.
func reuseBatch() (*tensor.Tensor, []int) {
	return tensor.RandNormal(tensor.NewRNG(7), 0, 1, 64, 1, 16, 16), make([]int, 64)
}

// sample returns a copy of sample i of xs as a batch of one.
func sample(xs *tensor.Tensor, i int) *tensor.Tensor {
	px := xs.Len() / xs.Dim(0)
	return tensor.FromSlice(append([]float32(nil), xs.Data()[i*px:(i+1)*px]...), 1, 1, 16, 16)
}

// TestSingleSampleOutputsSurviveReuse: single-sample inference writes into
// layer-owned buffers, and that reuse changes no result. Outputs are
// bit-identical before and after a batch-64 evaluation on the same model,
// equal to a fresh model's, and equal to the rows of a batched pass.
func TestSingleSampleOutputsSurviveReuse(t *testing.T) {
	m := reuseNet(1)
	xs, labels := reuseBatch()
	const n = 8
	before := make([]*tensor.Tensor, n)
	for i := range before {
		before[i] = m.Forward(sample(xs, i), false).Clone()
	}
	train.Evaluate(m, xs, labels, 64)
	batched := m.Forward(xs, false)
	for i := range before {
		got := m.Forward(sample(xs, i), false)
		fresh := reuseNet(1).Forward(sample(xs, i), false)
		if !tensor.Equal(got, before[i]) {
			t.Errorf("sample %d: output %v after a batch-64 evaluation, %v before", i, got, before[i])
		}
		if !tensor.Equal(got, fresh) {
			t.Errorf("sample %d: output %v, fresh model %v", i, got, fresh)
		}
		for j, v := range got.Data() {
			if w := batched.At2(i, j); v != w { //lint:allow(floateq) batched inference is documented bit-identical to single-sample
				t.Errorf("sample %d logit %d: single %v, batched %v", i, j, v, w)
			}
		}
	}
}

// TestForwardNeverWritesInput feeds each layer its input in every mode —
// single-sample and multi-sample inference, training — and checks the
// input is unchanged afterwards.
func TestForwardNeverWritesInput(t *testing.T) {
	xs, _ := reuseBatch()
	for _, tc := range []struct {
		name     string
		x        *tensor.Tensor
		training bool
	}{
		{"single-sample inference", sample(xs, 0), false},
		{"batch inference", xs, false},
		{"training", xs, true},
	} {
		m := reuseNet(3)
		for pass := 0; pass < 2; pass++ { // the second pass reuses buffers
			x := tc.x
			for _, l := range m.Layers() {
				snapshot := x.Clone()
				out := l.Forward(x, tc.training)
				if !tensor.Equal(x, snapshot) {
					t.Fatalf("%s pass %d: %s wrote its input", tc.name, pass, l.Name())
				}
				x = out
			}
		}
	}
}

// TestEvaluateKeepsNoBatchScratch: a batch-64 evaluation leaves no layer
// holding inference scratch beyond one sample. The live heap grows by less
// than one batch-sized buffer would take: conv1's batch-64 patch matrix
// alone is 9×(64·256) floats, about 590 KB.
func TestEvaluateKeepsNoBatchScratch(t *testing.T) {
	m := reuseNet(2)
	xs, labels := reuseBatch()
	m.Forward(sample(xs, 0), false) // allocate the single-sample buffers
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := liveHeap()
	train.Evaluate(m, xs, labels, 64)
	if grown := liveHeap() - base; grown > 64<<10 {
		t.Errorf("live heap grew %d B across a batch-64 evaluation, want <= %d", grown, 64<<10)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(xs)
}
