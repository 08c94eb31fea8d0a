package perception

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// bytesPerRun reports the mean heap bytes one call of f allocates, after
// one warm-up call. Like testing.AllocsPerRun it pins GOMAXPROCS to 1 so
// other goroutines add little to the count.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDetectSteadyStateAllocation pins the per-frame garbage of Detect on
// the obstacle net: after one warm-up frame at a level, every layer writes
// into buffers it owns, so a frame allocates under 1 KB at every level
// (27.7 KB in 37 objects when every layer allocated its output).
func TestDetectSteadyStateAllocation(t *testing.T) {
	m := buildObstacleNet(5)
	plans, err := (prune.MagnitudeGlobal{}).PlanNested(m, []float64{0.5, 0.6, 0.65, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.Build(m, plans)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(m, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := tensor.RandNormal(tensor.NewRNG(6), 0.5, 0.2, 16*16)
	for k := range rm.Levels() {
		if err := rm.ApplyLevel(k); err != nil {
			t.Fatal(err)
		}
		var detectErr error
		got := bytesPerRun(200, func() { _, detectErr = pipe.Detect(frame) })
		if detectErr != nil {
			t.Fatal(detectErr)
		}
		t.Logf("L%d: %d B/frame", k, got)
		if got > 1024 {
			t.Errorf("L%d: Detect allocates %d B/frame, want <= 1024", k, got)
		}
	}
}
