package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/nn"
	"repro/internal/perception"
	"repro/internal/platform"
	"repro/internal/safety"
	"repro/internal/tensor"
)

// blockFrames is the offline workload's closed-loop block length;
// refPerBlock reference passes follow each block.
const (
	blockFrames = 500
	refPerBlock = 25
)

// stepPolicy proposes whatever level the offline loop sets; the governor
// still enforces the contract and executes the transition.
type stepPolicy struct{ target int }

func (p *stepPolicy) Name() string               { return "step" }
func (p *stepPolicy) Decide(governor.Inputs) int { return p.target }
func stepping() governor.Policy                  { return &stepPolicy{} }

// runOffline runs closed-loop Detect on one instance in blocks cycling
// L0…L4, with no network or dispatcher. The L0 block of each cycle is
// ticked as an emergency (the contract serves emergencies dense), so its
// transition from the deepest level is a restore.
func runOffline(o options, tr *tracer) (rep *report, err error) {
	pool := framePool(o.seed)
	rep = newReport()
	st, err := rep.setUp(o.setups, 0, stepping, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	refs, err := references(st.zoo, pool)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	inst := st.insts[0]
	pol, ok := inst.Governor().Policy().(*stepPolicy)
	if !ok {
		return nil, fmt.Errorf("offline instance has policy %s", inst.Governor().Policy().Name())
	}

	perm := rand.New(rand.NewSource(o.seed)).Perm(poolSize)
	start := time.Now()
	from, to := start.Add(o.warmup), start.Add(o.warmup+o.window)
	tr.window(from, to)
	gov := &governed{tr: tr, from: from, to: to, speed: newSpeedSampler(from, o.window), restoreUS: newSliced(o.window)}
	level := inst.Current()
	perFrameMS, emergencyMS := newSliced(o.window), newSliced(o.window)
	var frames int64
	for tick, pos := 0, 0; time.Now().Before(to); {
		for k := 0; k < numLevels; k++ {
			pol.target = k
			a := safety.Assessment{Class: safety.Nominal}
			if k == 0 {
				a.Class = safety.Emergency
			}
			gov.tick(inst, tick, a, &level, k)
			tick++
			b0 := time.Now()
			for j := 0; j < blockFrames; j++ {
				f := perm[pos%poolSize]
				pos++
				det, err := inst.Detect(pool[f])
				if err != nil {
					return nil, fmt.Errorf("detect: %w", err)
				}
				if !sameDetection(det, refs[k][f]) && len(gov.violations) < 10 {
					gov.violations = append(gov.violations, fmt.Sprintf("L%d pool frame %d: detection %+v, reference %+v", k, f, det, refs[k][f]))
				}
			}
			b1 := time.Now()
			gov.speed.sample(refPerBlock)
			tr.record(0, fmt.Sprintf("offline.block.L%d", k), b0, b1, 0, -1)
			if b0.Before(from) || !b0.Before(to) {
				continue
			}
			frames += blockFrames
			per := ms(b1.Sub(b0)) / blockFrames
			perFrameMS.add(b0.Sub(from), per)
			if k == 0 {
				emergencyMS.add(b0.Sub(from), per)
			}
		}
	}
	rep.attempted = frames
	// A slice's rate is frames per second of Detect time.
	rates := make([]float64, len(perFrameMS))
	for i, x := range perFrameMS {
		if len(x) > 0 {
			rates[i] = 1e3 / mean(x)
		}
	}
	rep.slow = gov.speed.slowdowns()
	rep.setSliced("served_fps", rates, capacity)
	rep.setSliced("latency_p50_ms", perFrameMS.medians(), timing)
	rep.setSliced("emergency_p50_ms", emergencyMS.medians(), timing)
	gov.report(rep)
	rep.violations = gov.violations
	rep.correct = len(rep.violations) == 0
	if tr != nil {
		fillTraced(rep, tr)
		if err := profile(st.zoo, pool, tr, rep, o.profileFrames); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return rep, nil
}

// profile times the forward pass layer by layer at every level, calling
// each layer's Forward in Sequential order on a fresh view, plus im2col
// and the two matmuls on the live conv1 and fc1 weights, and sets the
// per-level metrics beside platform.Estimate's prediction.
func profile(z *experiments.Zoo, pool []*tensor.Tensor, tr *tracer, rep *report, frames int) error {
	spec := platform.EmbeddedCPU()
	model, rm, err := z.ObstacleStackView(spec)
	if err != nil {
		return err
	}
	defer func() { _ = rm.Release() }() // the view is ours alone; Release fails only when called twice
	pipe, err := perception.NewPipeline(model, frameSize, 0)
	if err != nil {
		return err
	}
	layers := model.Layers()
	if len(layers) != len(modelLayers) {
		return fmt.Errorf("model has %d layers, the profile expects %v", len(layers), modelLayers)
	}
	for i, l := range layers {
		if l.Name() != modelLayers[i] {
			return fmt.Errorf("layer %d is %q, the profile expects %q", i, l.Name(), modelLayers[i])
		}
	}
	conv, ok1 := model.Layer("conv1").(*nn.Conv2D)
	fc1, ok2 := model.Layer("fc1").(*nn.Dense)
	if !ok1 || !ok2 {
		return fmt.Errorf("conv1 or fc1 has an unexpected layer type")
	}
	g := conv.Geom()
	cols := tensor.New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	input := tensor.New(1, 1, frameSize, frameSize)

	now := time.Now()
	tr.window(now, now.Add(time.Hour))
	var decide, im2col samples
	var detect [numLevels]samples
	for k := 0; k < numLevels; k++ {
		if err := rm.ApplyLevel(k); err != nil {
			return err
		}
		lk := fmt.Sprintf("L%d", k)
		perLayer := make([]samples, len(layers))
		var mmConv, mmFC samples
		for i := 0; i < frames; i++ {
			f := pool[i%len(pool)]
			t0 := time.Now()
			if _, err := pipe.Detect(f); err != nil {
				return err
			}
			t1 := time.Now()
			detect[k] = append(detect[k], us(t1.Sub(t0)))
			tr.record(0, "perception.detect."+lk, t0, t1, 0, -1)

			fwd := tr.newID()
			copy(input.Data(), f.Data())
			x, fcIn := input, input
			for li, l := range layers {
				if l.Name() == "fc1" {
					fcIn = x
				}
				s := time.Now()
				x = l.Forward(x, false)
				e := time.Now()
				perLayer[li] = append(perLayer[li], us(e.Sub(s)))
				tr.record(0, "nn."+l.Name()+"."+lk, s, e, fwd, -1)
			}
			s := time.Now()
			pipe.DecideRow(tensor.SoftmaxRows(x), 0)
			e := time.Now()
			decide = append(decide, us(e.Sub(s)))
			tr.record(0, "perception.decide", s, e, fwd, -1)
			tr.record(fwd, "profile.forward."+lk, t1, e, 0, -1)

			s = time.Now()
			tensor.Im2col(f.Data(), g, cols)
			e = time.Now()
			im2col = append(im2col, us(e.Sub(s)))
			tr.record(0, "tensor.im2col_conv1", s, e, 0, -1)
			s = time.Now()
			tensor.MatMulBlocked(conv.Weight().Value, cols)
			e = time.Now()
			mmConv = append(mmConv, us(e.Sub(s)))
			tr.record(0, "tensor.matmul_conv1."+lk, s, e, 0, -1)
			s = time.Now()
			tensor.MatMulTransB(fcIn, fc1.Weight().Value)
			e = time.Now()
			mmFC = append(mmFC, us(e.Sub(s)))
			tr.record(0, "tensor.matmul_fc1."+lk, s, e, 0, -1)
		}
		for li, l := range layers {
			rep.set("nn."+l.Name()+"."+lk+"_us", median(perLayer[li]))
		}
		est := spec.Estimate(model).LatencyMS * 1e3
		rep.set("perception.detect."+lk+"_us", median(detect[k]))
		rep.set("tensor.matmul_conv1."+lk+"_us", median(mmConv))
		rep.set("tensor.matmul_fc1."+lk+"_us", median(mmFC))
		rep.set("core.sparsity."+lk, rm.Level(k).Sparsity)
		rep.set("platform.estimate."+lk+"_us", est)
		rep.set("platform.estimate_ratio."+lk, ratio(median(detect[k]), est))
	}
	rep.set("perception.decide_us", median(decide))
	rep.set("tensor.im2col_conv1_us", median(im2col))
	rep.set("perception.level_speedup", ratio(median(detect[0]), median(detect[numLevels-1])))
	return nil
}
