package fleet

import (
	"testing"

	"repro/internal/perception"
)

// buildBareAndInstance returns a bare pipeline and an Instance wrapping an
// identical model, for overhead-delta comparisons.
func buildBareAndInstance(t testing.TB) (*perception.Pipeline, *Instance) {
	t.Helper()
	m := testModel(11)
	pipe, err := perception.NewPipeline(m, testFrameSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := newTestInstance(t, "car0", 11)
	return pipe, inst
}

// TestInstanceDetectZeroAllocOverhead pins the per-instance detect hot
// path with no observer installed: the Instance wrapper (atomic observer
// load + per-instance lock) must add zero allocations over the bare
// pipeline. After the first frame the layers write into buffers they own,
// but the pipeline still allocates a few small objects per frame
// (Flatten's view, the softmax probabilities), so the assertion is on the
// delta, not on zero.
func TestInstanceDetectZeroAllocOverhead(t *testing.T) {
	pipe, inst := buildBareAndInstance(t)
	frame := testFrame()
	pipe.Detect(frame) // warm both paths
	inst.Detect(frame)
	bare := testing.AllocsPerRun(200, func() { pipe.Detect(frame) })
	wrapped := testing.AllocsPerRun(200, func() { inst.Detect(frame) })
	if wrapped > bare {
		t.Fatalf("Instance.Detect allocates %.1f/op vs bare pipeline %.1f/op — wrapper overhead must be alloc-free", wrapped, bare)
	}
}

func BenchmarkBarePipelineDetect(b *testing.B) {
	pipe, _ := buildBareAndInstance(b)
	frame := testFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Detect(frame)
	}
}

func BenchmarkInstanceDetectNoObserver(b *testing.B) {
	_, inst := buildBareAndInstance(b)
	frame := testFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Detect(frame)
	}
}

func BenchmarkRebalance(b *testing.B) {
	f := New()
	for _, name := range []string{"car0", "car1", "car2", "car3"} {
		if err := f.Add(newTestInstance(b, name, 1)); err != nil {
			b.Fatal(err)
		}
	}
	bg, err := NewBudgetGovernor(f, Budget{EnergyMJ: 26})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bg.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}
