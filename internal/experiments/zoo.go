// Package experiments implements the evaluation harness: a model zoo that
// trains the perception networks deterministically, and one runner per
// reconstructed table and figure (F1–F5, T1–T5 in DESIGN.md). Each runner
// regenerates its table from scratch so EXPERIMENTS.md can be reproduced
// with a single command.
package experiments

import (
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/prune"
	"repro/internal/tensor"
	"repro/internal/train"
)

// DefaultAccuracyDrops are the per-level accuracy drops (relative to the
// measured dense accuracy) the library designer resolves into sparsities:
// one level per contract regime, from near-dense down to the
// nominal-cruise floor. Relative targets keep the library meaningful across
// training seeds.
var DefaultAccuracyDrops = []float64{0.005, 0.03, 0.07, 0.15}

// Zoo trains and caches the evaluation models. All training is
// deterministic; a Zoo with the same seed always produces identical
// weights.
type Zoo struct {
	seed int64

	signOnce  sync.Once
	signModel *nn.Sequential
	signTest  *dataset.Dataset

	obsOnce  sync.Once
	obsModel *nn.Sequential
	obsTest  *dataset.Dataset
	obsTrain *dataset.Dataset

	levelsOnce  sync.Once
	levelsCache []float64
	levelsErr   error

	stackOnce sync.Once
	stackRM   *core.ReversibleModel
	stackErr  error

	stratMu    sync.Mutex
	stratCache []strategyResult
}

// NewZoo constructs a zoo with the given base seed.
func NewZoo(seed int64) *Zoo { return &Zoo{seed: seed} }

// NewSignNet builds the (untrained) 6-class road-sign CNN.
func NewSignNet(seed int64) *nn.Sequential {
	rng := tensor.NewRNG(seed)
	g1 := tensor.ConvGeom{InC: 1, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	g2 := tensor.ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	return nn.NewSequential("signnet",
		nn.NewConv2D("conv1", g1, 8, rng),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 8, 16, 16, 2, 2, 2, 2),
		nn.NewConv2D("conv2", g2, 12, rng),
		nn.NewReLU("relu2"),
		nn.NewMaxPool2D("pool2", 12, 8, 8, 2, 2, 2, 2),
		nn.NewFlatten("flat"),
		nn.NewDense("fc1", 12*4*4, 48, rng),
		nn.NewReLU("relu3"),
		nn.NewDense("fc2", 48, 6, rng),
	)
}

// NewObstacleNet builds the (untrained) binary obstacle CNN used by the
// driving scenarios.
func NewObstacleNet(seed int64) *nn.Sequential {
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

// SignNet returns the trained road-sign classifier and its held-out test
// set. The first call trains; later calls return the cached model.
func (z *Zoo) SignNet() (*nn.Sequential, *dataset.Dataset) {
	z.signOnce.Do(func() {
		ds := dataset.Signs(dataset.DefaultSignConfig(2400, z.seed+1))
		tr, te := ds.Split(0.8, z.seed+2)
		z.signModel = NewSignNet(z.seed + 3)
		train.Fit(z.signModel, tr.X, tr.Labels, train.Config{
			Epochs:    12,
			BatchSize: 32,
			Optimizer: train.NewAdam(0.003, 0),
			Seed:      z.seed + 4,
		})
		z.signTest = te
	})
	return z.signModel, z.signTest
}

// ObstacleNet returns the trained obstacle detector and its held-out test
// set, using the hardened distribution (small blobs, jittered noise) that
// produces the graded sparsity-accuracy curve the level library needs.
func (z *Zoo) ObstacleNet() (*nn.Sequential, *dataset.Dataset) {
	z.obsOnce.Do(func() {
		ds := dataset.Obstacles(dataset.ObstacleConfig{
			N: 3000, Size: 16,
			NoiseMin: 0.05, NoiseMax: 0.2,
			MinRadius: 1.5, MaxRadius: 4.5,
			ContrastMin: 0.7, ContrastMax: 1.0,
			Seed: z.seed + 11,
		})
		tr, te := ds.Split(0.8, z.seed+12)
		z.obsModel = NewObstacleNet(z.seed + 13)
		train.Fit(z.obsModel, tr.X, tr.Labels, train.Config{
			Epochs:    10,
			BatchSize: 32,
			Optimizer: train.NewAdam(0.003, 0),
			Seed:      z.seed + 14,
		})
		z.obsTest = te
		z.obsTrain = tr
	})
	return z.obsModel, z.obsTest
}

// ObstacleTrain returns the obstacle training split (used by the
// fine-tune-recovery baseline).
func (z *Zoo) ObstacleTrain() *dataset.Dataset {
	z.ObstacleNet()
	return z.obsTrain
}

// SignEval returns an accuracy evaluator over the sign test set.
func (z *Zoo) SignEval() func(*nn.Sequential) float64 {
	_, te := z.SignNet()
	return func(m *nn.Sequential) float64 {
		_, acc := train.Evaluate(m, te.X, te.Labels, 128)
		return acc
	}
}

// ObstacleEval returns an accuracy evaluator over the obstacle test set.
func (z *Zoo) ObstacleEval() func(*nn.Sequential) float64 {
	_, te := z.ObstacleNet()
	return func(m *nn.Sequential) float64 {
		_, acc := train.Evaluate(m, te.X, te.Labels, 128)
		return acc
	}
}

// CloneSign returns a fresh sign model carrying the trained weights.
func (z *Zoo) CloneSign() *nn.Sequential {
	src, _ := z.SignNet()
	return cloneInto(src, NewSignNet(z.seed+999))
}

// CloneObstacle returns a fresh obstacle model carrying the trained
// weights.
func (z *Zoo) CloneObstacle() *nn.Sequential {
	src, _ := z.ObstacleNet()
	return cloneInto(src, NewObstacleNet(z.seed+998))
}

func cloneInto(src, dst *nn.Sequential) *nn.Sequential {
	data, err := src.EncodeWeights()
	if err != nil {
		panic(err) //lint:allow(nopanic) in-memory encode of a well-formed model cannot fail
	}
	if err := dst.DecodeWeights(data); err != nil {
		panic(err) //lint:allow(nopanic) decode of bytes we just encoded cannot fail
	}
	return dst
}

// DesignedLevels returns the sparsity ladder resolved from
// DefaultAccuracyDrops for the trained obstacle model, memoized per zoo.
func (z *Zoo) DesignedLevels() ([]float64, error) {
	z.levelsOnce.Do(func() {
		m := z.CloneObstacle()
		eval := z.ObstacleEval()
		denseAcc := eval(m)
		targets := make([]float64, len(DefaultAccuracyDrops))
		for i, d := range DefaultAccuracyDrops {
			targets[i] = denseAcc - d
		}
		z.levelsCache, z.levelsErr = core.DesignLevels(m, prune.MagnitudeGlobal{}, eval, targets)
	})
	return z.levelsCache, z.levelsErr
}

// ObstacleStack builds the standard deployment stack: a cloned trained
// obstacle model wrapped in a calibrated reversible level library with
// platform costs attached. A nil levels slice uses the designed default
// ladder.
func (z *Zoo) ObstacleStack(levels []float64, spec platform.Spec) (*nn.Sequential, *core.ReversibleModel, error) {
	if levels == nil {
		var err error
		levels, err = z.DesignedLevels()
		if err != nil {
			return nil, nil, err
		}
	}
	m := z.CloneObstacle()
	plans, err := (prune.MagnitudeGlobal{}).PlanNested(m, levels)
	if err != nil {
		return nil, nil, err
	}
	rm, err := core.Build(m, plans)
	if err != nil {
		return nil, nil, err
	}
	if err := rm.Calibrate(z.ObstacleEval()); err != nil {
		return nil, nil, err
	}
	for i := 0; i < rm.NumLevels(); i++ {
		if err := rm.ApplyLevel(i); err != nil {
			return nil, nil, err
		}
		c := spec.Estimate(m)
		rm.SetCost(i, c.LatencyMS, c.EnergyMJ)
	}
	if err := rm.RestoreFull(); err != nil {
		return nil, nil, err
	}
	return m, rm, nil
}

// ObstacleStackView returns a fresh fleet clone of the standard obstacle
// deployment stack: a new architecture skeleton re-pointed copy-on-write at
// one memoized, calibrated checkpoint store. The first call builds and
// calibrates the base stack (designed ladder, the given spec's costs);
// every call — including the first — returns an independent view holding
// one store reference, so a fleet of N clones keeps the dense weights,
// recovery deltas, and level metadata resident once instead of N times.
// Release each view when its instance is torn down; the zoo retains the
// base reference, so the store outlives all views.
//
// Because costs and calibration are level metadata shared through the
// store, every caller must pass the same spec. Instances that will take
// weight-corrupting fault injection should use ObstacleStack instead — an
// unshared store bounds the blast radius.
func (z *Zoo) ObstacleStackView(spec platform.Spec) (*nn.Sequential, *core.ReversibleModel, error) {
	z.stackOnce.Do(func() {
		_, rm, err := z.ObstacleStack(nil, spec)
		if err != nil {
			z.stackErr = err
			return
		}
		z.stackRM = rm
	})
	if z.stackErr != nil {
		return nil, nil, z.stackErr
	}
	arch := NewObstacleNet(z.seed + 997)
	view, err := z.stackRM.Store().NewView(arch)
	if err != nil {
		return nil, nil, err
	}
	return arch, view, nil
}
