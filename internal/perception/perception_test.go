package perception

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/governor"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/prune"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/train"
)

var (
	setupOnce sync.Once
	obsModel  *nn.Sequential // trained dense obstacle classifier
	obsEval   func(*nn.Sequential) float64
)

func buildObstacleNet(seed int64) *nn.Sequential {
	rng := tensor.NewRNG(seed)
	g := tensor.ConvGeom{InC: 1, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	return nn.NewSequential("obsnet",
		nn.NewConv2D("conv1", g, 8, rng),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 8, 16, 16, 2, 2, 2, 2),
		nn.NewFlatten("flat"),
		nn.NewDense("fc1", 8*8*8, 24, rng),
		nn.NewReLU("relu2"),
		nn.NewDense("fc2", 24, 2, rng),
	)
}

// setup trains the shared obstacle model once per test binary.
func setup(t *testing.T) {
	t.Helper()
	setupOnce.Do(func() {
		// Harder-than-default patches (smaller blobs, more noise) give the
		// graded accuracy-vs-sparsity curve the level library needs.
		ds := dataset.Obstacles(dataset.ObstacleConfig{
			N: 2400, Size: 16,
			NoiseMin: 0.05, NoiseMax: 0.2,
			MinRadius: 1.5, MaxRadius: 4.5,
			Seed: 1,
		})
		tr, te := ds.Split(0.8, 2)
		obsModel = buildObstacleNet(3)
		train.Fit(obsModel, tr.X, tr.Labels, train.Config{
			Epochs:    10,
			BatchSize: 32,
			Optimizer: train.NewAdam(0.003, 0),
			Seed:      4,
		})
		obsEval = func(m *nn.Sequential) float64 {
			_, acc := train.Evaluate(m, te.X, te.Labels, 64)
			return acc
		}
	})
	if obsEval(obsModel) < 0.9 {
		t.Fatalf("obstacle model undertrained: acc %v", obsEval(obsModel))
	}
}

// freshStack clones the trained model into a calibrated reversible wrapper.
func freshStack(t *testing.T) (*nn.Sequential, *core.ReversibleModel) {
	t.Helper()
	m := buildObstacleNet(99)
	data, err := obsModel.EncodeWeights()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DecodeWeights(data); err != nil {
		t.Fatal(err)
	}
	plans, err := (prune.MagnitudeGlobal{}).PlanNested(m, []float64{0.5, 0.6, 0.65, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.Build(m, plans)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Calibrate(obsEval); err != nil {
		t.Fatal(err)
	}
	spec := platform.EmbeddedCPU()
	for i := 0; i < rm.NumLevels(); i++ {
		if err := rm.ApplyLevel(i); err != nil {
			t.Fatal(err)
		}
		c := spec.Estimate(m)
		rm.SetCost(i, c.LatencyMS, c.EnergyMJ)
	}
	if err := rm.RestoreFull(); err != nil {
		t.Fatal(err)
	}
	return m, rm
}

func TestPipelineValidation(t *testing.T) {
	setup(t)
	if _, err := NewPipeline(nil, 16, 0); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewPipeline(obsModel, 0, 0); err == nil {
		t.Error("zero frame size accepted")
	}
	if _, err := NewPipeline(obsModel, 16, 1.5); err == nil {
		t.Error("threshold >1 accepted")
	}
}

func TestPipelineDetectsObstacles(t *testing.T) {
	setup(t)
	pipe, err := NewPipeline(obsModel, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	hits, total := 0, 0
	for i := 0; i < 40; i++ {
		truth := i%2 == 0
		pix := dataset.RenderObstaclePatch(truth, 16, 4, 0.05, rng)
		det, err := pipe.Detect(tensor.FromSlice(pix, 1, 16, 16))
		if err != nil {
			t.Fatal(err)
		}
		if det.Obstacle == truth {
			hits++
		}
		total++
		if det.Uncertainty < 0 || det.Uncertainty > 1 {
			t.Fatalf("uncertainty %v out of [0,1]", det.Uncertainty)
		}
		if det.Confidence < 0 || det.Confidence > 1 {
			t.Fatalf("confidence %v out of [0,1]", det.Confidence)
		}
	}
	if float64(hits)/float64(total) < 0.85 {
		t.Errorf("detection accuracy %v too low", float64(hits)/float64(total))
	}
}

func TestRunScenarioDenseBaselineIsSafe(t *testing.T) {
	setup(t)
	m, _ := freshStack(t)
	res, err := RunScenario(sim.CutIn(), m, nil, LoopConfig{
		FrameSize: 16,
		Spec:      platform.EmbeddedCPU(),
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided {
		t.Error("dense model collided in cut-in scenario")
	}
	if res.Ticks != 2000 {
		t.Errorf("ticks = %d", res.Ticks)
	}
	if res.ObstacleTicks == 0 {
		t.Error("cut-in scenario produced no obstacle frames")
	}
	// Misses concentrate at the far edge of sensor range (small blobs);
	// near-range, criticality-weighted misses are the safety-relevant ones.
	if res.MissRate() > 0.45 {
		t.Errorf("dense miss rate %v too high", res.MissRate())
	}
	if res.MissedCritical > 3 {
		t.Errorf("dense model missed %d critical frames", res.MissedCritical)
	}
	if res.EnergyMJ <= 0 {
		t.Error("energy accounting inactive")
	}
	if res.Switches != 0 || res.MeanLevel != 0 {
		t.Error("static run should have no switches")
	}
}

func TestRunScenarioAdaptiveSavesEnergyWithoutCollisions(t *testing.T) {
	setup(t)
	// Dense baseline.
	mDense, _ := freshStack(t)
	dense, err := RunScenario(sim.HighwayCruise(), mDense, nil, LoopConfig{
		FrameSize: 16, Spec: platform.EmbeddedCPU(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive run.
	mA, rmA := freshStack(t)
	gov, err := governor.New(rmA, &governor.Hysteresis{DwellTicks: 20}, safety.DefaultContract())
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunScenario(sim.HighwayCruise(), mA, rmA, LoopConfig{
		FrameSize: 16, Spec: platform.EmbeddedCPU(), Governor: gov, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Collided {
		t.Error("adaptive run collided on highway cruise")
	}
	if adaptive.EnergyMJ >= dense.EnergyMJ {
		t.Errorf("adaptive energy %v not below dense %v", adaptive.EnergyMJ, dense.EnergyMJ)
	}
	if adaptive.MeanLevel <= 0.5 {
		t.Errorf("adaptive cruise should spend most time pruned, mean level %v", adaptive.MeanLevel)
	}
	if adaptive.Violations != 0 {
		t.Errorf("adaptive run violated contract %d times", adaptive.Violations)
	}
}

func TestRunScenarioRecordsTimeline(t *testing.T) {
	setup(t)
	m, rm := freshStack(t)
	gov, err := governor.New(rm, governor.Threshold{}, safety.DefaultContract(), governor.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(sim.CutIn(), m, rm, LoopConfig{
		FrameSize: 16, Governor: gov, Record: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder == nil {
		t.Fatal("no recorder")
	}
	for _, name := range []string{"score", "class", "level", "truth", "detected", "ttc"} {
		if res.Recorder.Len(name) != res.Ticks {
			t.Errorf("series %q has %d points, want %d", name, res.Recorder.Len(name), res.Ticks)
		}
	}
	// The cut-in at tick 1000 must drive the level to dense at some point
	// after it.
	levels := res.Recorder.Series("level")
	sawDenseAfterCutIn := false
	for i := 1000; i < len(levels); i++ {
		if levels[i] == 0 {
			sawDenseAfterCutIn = true
			break
		}
	}
	if !sawDenseAfterCutIn {
		t.Error("governor never restored dense after the cut-in")
	}
}

func TestRunScenarioDeterminism(t *testing.T) {
	setup(t)
	run := func() LoopResult {
		m, rm := freshStack(t)
		gov, err := governor.New(rm, governor.Threshold{}, safety.DefaultContract())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunScenario(sim.UrbanTraffic(), m, rm, LoopConfig{
			FrameSize: 16, Spec: platform.EmbeddedCPU(), Governor: gov, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.EnergyMJ != b.EnergyMJ || a.Missed != b.Missed || a.Switches != b.Switches || a.Collided != b.Collided {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestRunScenarioRejectsBadConfig(t *testing.T) {
	setup(t)
	m, _ := freshStack(t)
	bad := safety.DefaultAssessor()
	bad.WTTC = 0.9 // weights no longer sum to 1
	if _, err := RunScenario(sim.HighwayCruise(), m, nil, LoopConfig{Assessor: bad}); err == nil {
		t.Error("invalid assessor accepted")
	}
}

func TestDetectionGapsRecorded(t *testing.T) {
	setup(t)
	m, _ := freshStack(t)
	res, err := RunScenario(sim.PedestrianCrossing(), m, nil, LoopConfig{
		FrameSize: 16, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DetectionGaps) == 0 {
		t.Fatal("no obstacle episodes recorded")
	}
	sawDetection := false
	for _, g := range res.DetectionGaps {
		if g >= 0 {
			sawDetection = true
			if g > 60.5 {
				t.Errorf("detection gap %v beyond sensor range", g)
			}
		}
	}
	if !sawDetection {
		t.Error("pedestrian never detected by the dense model")
	}
}

func TestDebounceSuppressesSingleFrameFlips(t *testing.T) {
	setup(t)
	pipe, err := NewPipeline(obsModel, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.SetDebounce(0, 3); err == nil {
		t.Error("k=0 accepted")
	}
	if err := pipe.SetDebounce(4, 3); err == nil {
		t.Error("k>n accepted")
	}
	if err := pipe.SetDebounce(2, 3); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(21)
	clear := tensor.FromSlice(dataset.RenderObstaclePatch(false, 16, 3, 0.02, rng), 1, 16, 16)
	obstacle := tensor.FromSlice(dataset.RenderObstaclePatch(true, 16, 4.5, 0.02, rng), 1, 16, 16)

	detect := func(frame *tensor.Tensor) Detection {
		t.Helper()
		det, err := pipe.Detect(frame)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	// A lone positive frame between clear frames must not fire with 2-of-3.
	detect(clear)
	detect(clear)
	if det := detect(obstacle); det.Obstacle {
		t.Error("single positive frame fired through 2-of-3 debounce")
	}
	// A second consecutive positive frame fires.
	if det := detect(obstacle); !det.Obstacle {
		t.Error("two consecutive positives did not fire")
	}
	// After the obstacle passes, one clear frame is not enough to release.
	if det := detect(clear); !det.Obstacle {
		t.Error("released after a single clear frame")
	}
	if det := detect(clear); det.Obstacle {
		t.Error("held after two clear frames")
	}
}
