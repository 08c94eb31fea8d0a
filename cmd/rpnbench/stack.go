package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/ingest"
	"repro/internal/perception"
	"repro/internal/platform"
	"repro/internal/safety"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	frameSize = 16
	poolSize  = 256
	// modelSeed trains the shared model exactly as simdrive -serve does;
	// the workload seed drives only the generated inputs.
	modelSeed = 1
	// dispatchWorkers is simdrive -serve's dispatcher pool size.
	dispatchWorkers = 4
	// dwellTicks is simdrive's hysteresis dwell.
	dwellTicks = 20
)

// stack is the serving system under test: simdrive -serve's stack built
// in-process from the same public constructors, with a hysteresis governor
// on every instance.
type stack struct {
	zoo   *experiments.Zoo
	insts []*fleet.Instance
	flt   *fleet.Fleet
	disp  *fleet.Dispatcher
	srv   *ingest.Server
	reg   *telemetry.Registry
	tb    *tracedBackend // nil when untraced
}

// buildStack trains the model and stands the fleet up behind the ingest
// listener. n is the fleet size; with n == 0 it builds one instance and no
// network front end (the offline workload). A non-nil tracer installs the
// benchmark's observers.
func buildStack(n int, policy func() governor.Policy, tr *tracer) (*stack, error) {
	st := &stack{reg: telemetry.NewRegistry()}
	st.reg.StartAggregator(250 * time.Millisecond)
	hooks := telemetry.NewHooks(st.reg)
	st.zoo = experiments.NewZoo(modelSeed)
	spec := platform.EmbeddedCPU()
	st.flt = fleet.New()
	for i := 0; i < max(n, 1); i++ {
		model, rm, err := st.zoo.ObstacleStackView(spec)
		if err != nil {
			return nil, st.fail(err)
		}
		pipe, err := perception.NewPipeline(model, frameSize, 0)
		if err != nil {
			return nil, st.fail(err)
		}
		inst, err := fleet.NewInstance(fmt.Sprintf("car%d", i), pipe, rm)
		if err != nil {
			return nil, st.fail(err)
		}
		if err := inst.AttachGovernor(policy(), safety.DefaultContract()); err != nil {
			return nil, st.fail(err)
		}
		if tr != nil {
			inst.SetObserver(frameTap{tr})
			inst.SetModelObserver(transitionTap{tr})
		}
		if err := st.flt.Add(inst); err != nil {
			return nil, st.fail(err)
		}
		st.insts = append(st.insts, inst)
	}
	if n == 0 {
		return st, nil
	}
	queue := 2*n + 8
	disp, err := fleet.NewDispatcher(st.flt, dispatchWorkers, queue)
	if err != nil {
		return nil, st.fail(err)
	}
	st.disp = disp
	var backend ingest.Backend = disp
	var obs ingest.Observer = hooks
	if tr != nil {
		st.tb = newTracedBackend(disp, tr, queue)
		backend = st.tb
		obs = &ingestTap{Observer: hooks, tr: tr}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("car%d", i)
	}
	var rr atomic.Uint64
	srv, err := ingest.Listen(ingest.Config{
		Backend: backend,
		// Each connection stands for a depot gateway whose vehicles are
		// spread over the whole fleet.
		ModelFor: func(string) string { return names[(rr.Add(1)-1)%uint64(n)] },
		Observer: obs,
	}, "127.0.0.1:0")
	if err != nil {
		return nil, st.fail(err)
	}
	st.srv = srv
	return st, nil
}

// fail tears down a partly built stack and returns err.
func (st *stack) fail(err error) error {
	if cerr := st.close(); cerr != nil {
		return fmt.Errorf("%w (teardown: %v)", err, cerr)
	}
	return err
}

// close drains the front end, then tears down dispatcher, views and
// telemetry in dependency order, as simdrive -serve does.
func (st *stack) close() error {
	var err error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = st.srv.Shutdown(ctx)
		cancel()
	}
	if st.tb != nil {
		st.tb.close()
	}
	if st.disp != nil {
		st.disp.Close()
	}
	if st.tb != nil {
		st.tb.wait()
	}
	if rerr := st.flt.Release(); rerr != nil && err == nil {
		err = rerr
	}
	if rerr := st.reg.Close(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// setUp builds the stack `times` times and keeps the last. It records
// setup_s, the median build time (training, store, views and listener,
// until ready), and heap_live_mb.
func (r *report) setUp(times, n int, policy func() governor.Policy, tr *tracer) (*stack, error) {
	var durs samples
	var st *stack
	for i := 0; i < times; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = buildStack(n, policy, tr); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(durs))
	r.set("heap_live_mb", liveHeapMB())
	return st, nil
}

// framePool generates the seeded pool of obstacle patches the load
// generator draws from (the zoo's hardened distribution).
func framePool(seed int64) []*tensor.Tensor {
	ds := dataset.Obstacles(dataset.ObstacleConfig{
		N: poolSize, Size: frameSize,
		NoiseMin: 0.05, NoiseMax: 0.2,
		MinRadius: 1.5, MaxRadius: 4.5,
		ContrastMin: 0.7, ContrastMax: 1.0,
		Seed: seed,
	})
	px := frameSize * frameSize
	pool := make([]*tensor.Tensor, poolSize)
	for i := range pool {
		pool[i] = tensor.FromSlice(append([]float32(nil), ds.X.Data()[i*px:(i+1)*px]...), 1, frameSize, frameSize)
	}
	return pool
}

// references computes the oracle: every pool frame's detection at every
// level, on a fresh view of the zoo's checkpoint store.
func references(z *experiments.Zoo, pool []*tensor.Tensor) ([][]perception.Detection, error) {
	model, rm, err := z.ObstacleStackView(platform.EmbeddedCPU())
	if err != nil {
		return nil, err
	}
	defer func() { _ = rm.Release() }() // the view is ours alone; Release fails only when called twice
	pipe, err := perception.NewPipeline(model, frameSize, 0)
	if err != nil {
		return nil, err
	}
	if rm.NumLevels() != numLevels {
		return nil, fmt.Errorf("model has %d levels, the benchmark expects %d", rm.NumLevels(), numLevels)
	}
	refs := make([][]perception.Detection, numLevels)
	for k := range refs {
		if err := rm.ApplyLevel(k); err != nil {
			return nil, err
		}
		refs[k] = make([]perception.Detection, len(pool))
		for i, f := range pool {
			if refs[k][i], err = pipe.Detect(f); err != nil {
				return nil, err
			}
		}
	}
	return refs, nil
}

// sameDetection compares two detections bit for bit.
func sameDetection(a, b perception.Detection) bool {
	return a.Obstacle == b.Obstacle &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.Uncertainty) == math.Float64bits(b.Uncertainty)
}

// checkDecision is the governor oracle: the applied level meets the class's
// accuracy floor, or is dense — the governor runs dense when no level,
// dense included, meets the floor (the default contract's emergency floor
// is above the trained model's accuracy).
func checkDecision(inst *fleet.Instance, d governor.Decision) error {
	floor := safety.DefaultContract().Floor(d.Class)
	if acc := inst.Level(d.Applied).Accuracy; acc < floor && d.Applied != 0 {
		return fmt.Errorf("%s: tick %d applied L%d (accuracy %.3f) below the %s floor %.3f",
			inst.Name(), d.Tick, d.Applied, acc, d.Class, floor)
	}
	return nil
}

// emergencyTrace returns, for one instance, which 10 ms governor ticks are
// emergencies: calm cruise with seeded Poisson spikes at spikesPerSec,
// each lasting spikeTicks.
func emergencyTrace(rng *rand.Rand, ticks int, spikesPerSec float64, spikeTicks int) []bool {
	tr := make([]bool, ticks)
	t := 0.0
	for {
		t += rng.ExpFloat64() / spikesPerSec
		start := int(t * 100)
		if start >= ticks {
			return tr
		}
		for i := start; i < min(start+spikeTicks, ticks); i++ {
			tr[i] = true
		}
	}
}
