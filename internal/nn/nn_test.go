package nn

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// lossFor computes the scalar test loss <f(x), coef> for gradient checking.
func lossFor(l Layer, x, coef *tensor.Tensor) float32 {
	return tensor.Dot(l.Forward(x, true), coef)
}

// checkGradients numerically verifies the backward pass of a layer for the
// loss <f(x), coef>. It checks the input gradient and every parameter
// gradient against central finite differences.
func checkGradients(t *testing.T, l Layer, x *tensor.Tensor, rng *tensor.RNG) {
	t.Helper()
	out := l.Forward(x, true)
	coef := tensor.RandNormal(rng, 0, 1, out.Shape()...)

	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	l.Forward(x, true)
	dx := l.Backward(coef)

	const eps = 1e-2
	const tol = 2e-2

	check := func(name string, values *tensor.Tensor, analytic []float32) {
		data := values.Data()
		for i := range data {
			orig := data[i]
			data[i] = orig + eps
			up := lossFor(l, x, coef)
			data[i] = orig - eps
			down := lossFor(l, x, coef)
			data[i] = orig
			numeric := (up - down) / (2 * eps)
			diff := float64(numeric - analytic[i])
			scale := math.Max(1, math.Abs(float64(numeric)))
			if math.Abs(diff)/scale > tol {
				t.Errorf("%s[%d]: numeric %v vs analytic %v", name, i, numeric, analytic[i])
				return
			}
		}
	}

	check("dx", x, dx.Data())
	// Recompute analytic parameter grads fresh (they were polluted by the
	// numeric passes above only via Forward, which never touches Grad).
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	l.Forward(x, true)
	l.Backward(coef)
	for _, p := range l.Params() {
		check(p.Name, p.Value, p.Grad.Data())
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense("fc", 2, 2, rng)
	d.Weight().Value.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2))
	d.Bias().Value.CopyFrom(tensor.FromSlice([]float32{10, 20}, 2))
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.At2(0, 0) != 13 || y.At2(0, 1) != 27 {
		t.Errorf("dense output = %v, want [13 27]", y.Data())
	}
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := NewDense("fc", 4, 3, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 4)
	checkGradients(t, d, x, rng)
}

// TestBackwardDropsTrainingCaches: Backward consumes the batch its
// training Forward cached, so a trained model keeps no training batch
// alive, and a second Backward fails instead of reading stale data.
func TestBackwardDropsTrainingCaches(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv := NewConv2D("conv", g, 2, rng)
	fc := NewDense("fc", 4, 3, rng)
	for _, tc := range []struct {
		layer  Layer
		x      *tensor.Tensor
		cached func() bool
	}{
		{conv, tensor.RandNormal(rng, 0, 1, 3, 1, 6, 6), func() bool { return conv.lastInput != nil || conv.lastCols != nil }},
		{fc, tensor.RandNormal(rng, 0, 1, 3, 4), func() bool { return fc.lastInput != nil }},
	} {
		name := tc.layer.Name()
		grad := tensor.Ones(tc.layer.Forward(tc.x, true).Shape()...)
		if !tc.cached() {
			t.Fatalf("%s: training Forward cached nothing", name)
		}
		tc.layer.Backward(grad)
		if tc.cached() {
			t.Errorf("%s still references its training batch after Backward", name)
		}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.layer.Backward(grad)
			return ""
		}()
		if !strings.Contains(msg, "Backward before training Forward") {
			t.Errorf("%s: second Backward gave %q, want the Backward-before-training-Forward error", name, msg)
		}
	}
}

func TestDenseRejectsBadInput(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense("fc", 4, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input width")
		}
	}()
	d.Forward(tensor.New(2, 5), false)
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	c := NewConv2D("conv", g, 3, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 2, 5, 5)
	checkGradients(t, c, x, rng)
}

func TestConv2DOutShape(t *testing.T) {
	rng := tensor.NewRNG(4)
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	c := NewConv2D("conv", g, 5, rng)
	y := c.Forward(tensor.New(2, 3, 8, 8), false)
	want := []int{2, 5, 4, 4}
	got := y.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("conv output shape %v, want %v", got, want)
		}
	}
}

func TestConv2DBiasApplied(t *testing.T) {
	rng := tensor.NewRNG(5)
	g := tensor.ConvGeom{InC: 1, InH: 3, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	c := NewConv2D("conv", g, 2, rng)
	c.Weight().Value.Zero()
	c.Bias().Value.CopyFrom(tensor.FromSlice([]float32{1.5, -2.5}, 2))
	y := c.Forward(tensor.New(1, 1, 3, 3), false)
	if y.At(0, 0, 0, 0) != 1.5 || y.At(0, 1, 0, 0) != -2.5 {
		t.Errorf("bias not applied: %v", y.Data())
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[2] != 2 {
		t.Errorf("relu forward = %v", y.Data())
	}
	g := r.Backward(tensor.FromSlice([]float32{5, 5, 5}, 1, 3))
	if g.Data()[0] != 0 || g.Data()[1] != 0 || g.Data()[2] != 5 {
		t.Errorf("relu backward = %v", g.Data())
	}
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := NewLeakyReLU("lrelu", 0.1)
	x := tensor.RandNormal(rng, 0, 1, 2, 6)
	checkGradients(t, l, x, rng)
}

func TestTanhGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	l := NewTanh("tanh")
	x := tensor.RandNormal(rng, 0, 0.5, 2, 5)
	checkGradients(t, l, x, rng)
}

func TestSoftmaxForwardRowsSumToOne(t *testing.T) {
	s := NewSoftmax("sm")
	y := s.Forward(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2), false)
	for i := 0; i < 2; i++ {
		sum := y.At2(i, 0) + y.At2(i, 1)
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxBackwardPanics(t *testing.T) {
	s := NewSoftmax("sm")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Backward(tensor.New(1, 2))
}

func TestMaxPoolForwardBackward(t *testing.T) {
	m := NewMaxPool2D("pool", 1, 4, 4, 2, 2, 2, 2)
	x := tensor.New(1, 1, 4, 4)
	for i := 0; i < 16; i++ {
		x.Data()[i] = float32(i)
	}
	y := m.Forward(x, true)
	want := []float32{5, 7, 13, 15}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("maxpool out[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
	g := m.Backward(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2))
	if g.Data()[5] != 1 || g.Data()[7] != 2 || g.Data()[13] != 3 || g.Data()[15] != 4 {
		t.Errorf("maxpool grad routing wrong: %v", g.Data())
	}
	var sum float32
	for _, v := range g.Data() {
		sum += v
	}
	if sum != 10 {
		t.Errorf("maxpool grad mass = %v, want 10", sum)
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	g := NewGlobalAvgPool2D("gap", 3, 4, 4)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 4, 4)
	checkGradients(t, g, x, rng)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dims() != 2 || y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := f.Backward(tensor.New(2, 60))
	if g.Dims() != 4 || g.Dim(3) != 5 {
		t.Errorf("unflatten shape %v", g.Shape())
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(9)
	d := NewDropout("drop", 0.5, rng)
	x := tensor.RandNormal(rng, 0, 1, 4, 8)
	y := d.Forward(x, false)
	if !tensor.Equal(x, y) {
		t.Error("dropout changed values at inference")
	}
}

func TestDropoutTrainingDropsApproxP(t *testing.T) {
	rng := tensor.NewRNG(10)
	d := NewDropout("drop", 0.3, rng)
	x := tensor.Ones(100, 100)
	y := d.Forward(x, true)
	zeros := 0
	for _, v := range y.Data() {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(y.Len())
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("dropout fraction %v, want ≈0.3", frac)
	}
	// Survivors must be scaled by 1/(1-p).
	for _, v := range y.Data() {
		if v != 0 && math.Abs(float64(v)-1/0.7) > 1e-5 {
			t.Errorf("survivor value %v, want %v", v, 1/0.7)
			break
		}
	}
}

func TestDropoutBackwardUsesSameMask(t *testing.T) {
	rng := tensor.NewRNG(11)
	d := NewDropout("drop", 0.5, rng)
	x := tensor.Ones(1, 100)
	y := d.Forward(x, true)
	g := d.Backward(tensor.Ones(1, 100))
	for i := range y.Data() {
		if (y.Data()[i] == 0) != (g.Data()[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	rng := tensor.NewRNG(12)
	x := tensor.RandNormal(rng, 5, 3, 64, 2)
	y := bn.Forward(x, true)
	// Per-feature mean ≈ 0, var ≈ 1 after normalization (gamma=1, beta=0).
	for f := 0; f < 2; f++ {
		var mean float64
		for i := 0; i < 64; i++ {
			mean += float64(y.At2(i, f))
		}
		mean /= 64
		if math.Abs(mean) > 1e-4 {
			t.Errorf("feature %d mean = %v", f, mean)
		}
		var variance float64
		for i := 0; i < 64; i++ {
			d := float64(y.At2(i, f)) - mean
			variance += d * d
		}
		variance /= 64
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("feature %d var = %v", f, variance)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	rng := tensor.NewRNG(13)
	for i := 0; i < 200; i++ {
		x := tensor.RandNormal(rng, 10, 2, 32, 1)
		bn.Forward(x, true)
	}
	mean, variance := bn.RunningStats()
	if math.Abs(float64(mean[0])-10) > 0.5 {
		t.Errorf("running mean = %v, want ≈10", mean[0])
	}
	if math.Abs(float64(variance[0])-4) > 1 {
		t.Errorf("running var = %v, want ≈4", variance[0])
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.SetRunningStats([]float32{10}, []float32{4})
	x := tensor.FromSlice([]float32{12}, 1, 1)
	y := bn.Forward(x, false)
	want := float32((12.0 - 10.0) / math.Sqrt(4+1e-5))
	if math.Abs(float64(y.Data()[0]-want)) > 1e-5 {
		t.Errorf("inference output %v, want %v", y.Data()[0], want)
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	bn := NewBatchNorm("bn", 3)
	x := tensor.RandNormal(rng, 1, 2, 8, 3)
	checkGradients(t, bn, x, rng)
}

func TestBatchNorm4D(t *testing.T) {
	rng := tensor.NewRNG(15)
	bn := NewBatchNorm("bn", 2)
	x := tensor.RandNormal(rng, 3, 2, 4, 2, 3, 3)
	y := bn.Forward(x, true)
	if y.Dims() != 4 {
		t.Fatalf("4-D batchnorm output shape %v", y.Shape())
	}
	// Channel mean over batch and spatial dims ≈ 0.
	var mean float64
	n := 0
	for s := 0; s < 4; s++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				mean += float64(y.At(s, 0, i, j))
				n++
			}
		}
	}
	if math.Abs(mean/float64(n)) > 1e-4 {
		t.Errorf("channel mean = %v", mean/float64(n))
	}
}

func TestSequentialUniqueNames(t *testing.T) {
	rng := tensor.NewRNG(16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate layer name")
		}
	}()
	NewSequential("m", NewDense("fc", 2, 2, rng), NewDense("fc", 2, 2, rng))
}

func TestSequentialForwardBackwardAndLookup(t *testing.T) {
	rng := tensor.NewRNG(17)
	m := NewSequential("m",
		NewDense("fc1", 4, 8, rng),
		NewReLU("relu1"),
		NewDense("fc2", 8, 3, rng),
	)
	x := tensor.RandNormal(rng, 0, 1, 2, 4)
	y := m.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 3 {
		t.Fatalf("model output shape %v", y.Shape())
	}
	dx := m.Backward(tensor.Ones(2, 3))
	if dx.Dim(1) != 4 {
		t.Errorf("input grad shape %v", dx.Shape())
	}
	if m.Layer("relu1") == nil || m.Layer("nope") != nil {
		t.Error("Layer lookup wrong")
	}
	if m.Param("fc1/weight") == nil || m.Param("fc1/nope") != nil {
		t.Error("Param lookup wrong")
	}
	if got, want := m.ParamCount(), int64(4*8+8+8*3+3); got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
	if len(m.PrunableParams()) != 2 {
		t.Errorf("PrunableParams = %d, want 2 (weights only)", len(m.PrunableParams()))
	}
	m.Param("fc1/weight").Grad.Fill(3)
	m.ZeroGrad()
	if m.Param("fc1/weight").Grad.Sum() != 0 {
		t.Error("ZeroGrad did not clear")
	}
}

func TestSequentialDescribe(t *testing.T) {
	rng := tensor.NewRNG(18)
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	m := NewSequential("m",
		NewConv2D("conv", g, 4, rng),
		NewFlatten("flat"),
		NewDense("fc", 4*8*8, 10, rng),
	)
	infos := m.Describe()
	if len(infos) != 2 {
		t.Fatalf("Describe returned %d infos, want 2", len(infos))
	}
	wantConvMACs := int64(1*3*3) * 4 * 64
	if infos[0].MACsPerSample != wantConvMACs {
		t.Errorf("conv MACs = %d, want %d", infos[0].MACsPerSample, wantConvMACs)
	}
	if m.TotalMACsPerSample() != wantConvMACs+int64(4*8*8*10) {
		t.Errorf("TotalMACs = %d", m.TotalMACsPerSample())
	}
}

func buildTestModel(seed int64) *Sequential {
	rng := tensor.NewRNG(seed)
	return NewSequential("m",
		NewDense("fc1", 6, 10, rng),
		NewBatchNorm("bn1", 10),
		NewReLU("relu1"),
		NewDense("fc2", 10, 4, rng),
	)
}

func TestWeightsSerializationRoundTrip(t *testing.T) {
	src := buildTestModel(20)
	// Give the BN layer non-default running stats.
	rng := tensor.NewRNG(21)
	for i := 0; i < 5; i++ {
		src.Forward(tensor.RandNormal(rng, 2, 3, 16, 6), true)
	}
	var buf bytes.Buffer
	if err := src.SaveWeights(&buf); err != nil {
		t.Fatalf("SaveWeights: %v", err)
	}
	if buf.Len() != src.WeightsSize() {
		t.Errorf("encoded %d bytes, WeightsSize says %d", buf.Len(), src.WeightsSize())
	}

	dst := buildTestModel(99) // different init
	if err := dst.LoadWeights(&buf); err != nil {
		t.Fatalf("LoadWeights: %v", err)
	}
	x := tensor.RandNormal(tensor.NewRNG(22), 0, 1, 3, 6)
	ys := src.Forward(x, false)
	yd := dst.Forward(x, false)
	if !tensor.Equal(ys, yd) {
		t.Error("loaded model disagrees with source model")
	}
}

func TestLoadWeightsRejectsWrongArchitecture(t *testing.T) {
	src := buildTestModel(23)
	data, err := src.EncodeWeights()
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(24)
	other := NewSequential("m", NewDense("fc1", 6, 11, rng))
	if err := other.DecodeWeights(data); err == nil {
		t.Error("expected error loading into mismatched architecture")
	}
	if err := other.DecodeWeights([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for garbage input")
	}
}
