package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/safety"
)

// Governance of the serve workloads: every instance carries simdrive's
// hysteresis governor, ticked at tickHz by the benchmark on a seeded
// criticality trace — calm cruise with emergency spikes.
const (
	tickHz       = 100
	spikesPerSec = 2.0
	spikeTicks   = 5 // 50 ms
)

// governed ticks every instance's governor and records tick and restore
// times. A restore is a Tick that switched the instance toward dense: the
// wall time includes the policy, the wait for the instance lock behind a
// frame in flight, the checksum verification and the weight writes.
type governed struct {
	insts    []*fleet.Instance
	traces   [][]bool
	tr       *tracer
	from, to time.Time
	speed    *speedSampler

	tickUS                      samples
	restoreUS                   sliced
	switches, restores, clamped int64
	violations                  []string
}

func (g *governed) run(start time.Time, stop <-chan struct{}) {
	select {
	case <-time.After(time.Until(start)):
	case <-stop:
		return
	}
	level := make([]int, len(g.insts))
	for i, inst := range g.insts {
		level[i] = inst.Current()
	}
	tk := time.NewTicker(time.Second / tickHz)
	defer tk.Stop()
	for tick := 0; ; tick++ {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		g.speed.sample(1)
		for i, inst := range g.insts {
			a := safety.Assessment{Class: safety.Nominal}
			if tick < len(g.traces[i]) && g.traces[i][tick] {
				a.Class = safety.Emergency
			}
			g.tick(inst, tick, a, &level[i], -1)
		}
	}
}

// tick runs one governor tick and records it when it starts in the
// window. want ≥ 0 is the level the caller's policy must have applied.
func (g *governed) tick(inst *fleet.Instance, tick int, a safety.Assessment, level *int, want int) {
	t0 := time.Now()
	d, err := inst.Tick(tick, a)
	t1 := time.Now()
	switch {
	case err != nil:
		g.violations = append(g.violations, fmt.Sprintf("%s: tick %d: %v", inst.Name(), tick, err))
		return
	case want >= 0 && d.Applied != want:
		g.violations = append(g.violations, fmt.Sprintf("%s: tick %d applied L%d, want L%d", inst.Name(), tick, d.Applied, want))
	}
	if err := checkDecision(inst, d); err != nil {
		g.violations = append(g.violations, err.Error())
	}
	prev := *level
	*level = d.Applied
	if t0.Before(g.from) || !t0.Before(g.to) {
		return
	}
	g.tr.record(0, "governor.tick", t0, t1, 0, -1)
	g.tickUS = append(g.tickUS, us(t1.Sub(t0)))
	if d.Clamped {
		g.clamped++
	}
	if !d.Switched {
		return
	}
	g.switches++
	if d.Applied < prev {
		g.restores++
		g.restoreUS.add(t0.Sub(g.from), us(t1.Sub(t0)))
	}
}

// report fills the governor metrics.
func (g *governed) report(rep *report) {
	rep.setSliced("restore_p50_us", g.restoreUS.medians(), timing)
	rep.setP99("governor.restore_p99_us", g.restoreUS.all())
	rep.set("governor.tick_p50_us", median(g.tickUS))
	rep.set("governor.switches", float64(g.switches))
	rep.set("governor.restores", float64(g.restores))
	rep.set("governor.clamped", float64(g.clamped))
}

func hysteresis() governor.Policy { return &governor.Hysteresis{DwellTicks: dwellTicks} }

// runServe runs one open-loop serve workload.
func runServe(w workload, o options, tr *tracer) (rep *report, err error) {
	pool := framePool(o.seed)
	rep = newReport()
	st, err := rep.setUp(o.setups, w.fleet, hysteresis, tr)
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

	horizon := o.warmup + o.window
	rng := rand.New(rand.NewSource(o.seed*31 + 7))
	ticks := int((horizon+o.drain).Seconds()*tickHz) + 1
	traces := make([][]bool, len(st.insts))
	for i := range traces {
		traces[i] = emergencyTrace(rng, ticks, spikesPerSec, spikeTicks)
	}

	// Time zero leaves the generator process time to start and dial.
	start := time.Now().Add(500 * time.Millisecond)
	from, to := start.Add(o.warmup), start.Add(horizon)
	tr.window(from, to)
	gov := &governed{insts: st.insts, traces: traces, tr: tr, from: from, to: to,
		speed: newSpeedSampler(from, o.window), restoreUS: newSliced(o.window)}
	stop := make(chan struct{})
	var gwg sync.WaitGroup
	gwg.Add(1)
	go func() { defer gwg.Done(); gov.run(start, stop) }()
	res, gerr := runGatewayProcess(&gatewayJob{
		Addr: st.srv.Addr().String(), Seed: o.seed, Rate: w.rate, Conns: w.conns,
		StartNS: start.UnixNano(), Warmup: o.warmup, Window: o.window, Drain: o.drain,
		Refs: refs, Traced: tr != nil,
	})
	close(stop)
	gwg.Wait()
	if gerr != nil {
		return nil, fmt.Errorf("load generator: %w", gerr)
	}

	t := res.Tally
	rep.attempted, rep.failed = t.Due, t.failed()
	rep.slow = gov.speed.slowdowns()
	sc := offered
	if w.saturated {
		sc = capacity
	}
	rep.setSliced("served_fps", t.LatMS.rates(o.window), sc)
	rep.setSliced("latency_p50_ms", t.LatMS.medians(), timing)
	rep.setSliced("emergency_p50_ms", t.EmergencyMS.medians(), timing)
	gov.report(rep)

	due := float64(t.Due)
	rep.setP99("loadgen.late_p99_us", t.LateUS)
	rep.set("loadgen.skipped", float64(t.Counts[outSkipped]))
	rep.set("loadgen.goodput_fps", float64(t.Goodput)/o.window.Seconds())
	rep.setP99("loadgen.latency_p99_ms", t.LatMS.all())
	rep.setP99("loadgen.emergency_p99_ms", t.EmergencyMS.all())
	rep.set("loadgen.slo_miss_ratio", ratio(due-float64(t.Goodput), due))
	rep.set("loadgen.emergency_miss_ratio", ratio(float64(t.EmergencyDue-t.EmergencyGood), float64(t.EmergencyDue)))
	rep.set("loadgen.shed_ratio", ratio(float64(t.Counts[outShed]), due))
	rep.set("loadgen.error_ratio", ratio(float64(t.failed()), due))
	rep.buckets = t.Counts

	rep.violations = append(t.Violations, gov.violations...)
	rep.correct = len(rep.violations) == 0

	if tr != nil {
		tr.merge(res.BaseNS, res.Spans)
		rep.set("ingest.send_p50_us", median(res.SendUS))
		fillTraced(rep, tr)
		if err := profile(st.zoo, pool, tr, rep, o.profileFrames); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return rep, nil
}

// fillTraced fills the per-layer metrics that only the traced run's spans
// and observer counts provide.
func fillTraced(rep *report, tr *tracer) {
	for _, name := range []string{"ingest.enqueue", "ingest.frame", "dispatch.submit_block", "dispatch.residence", "instance.detect", "core.transition"} {
		d := tr.durations(name)
		rep.set(name+"_p50_us", median(d))
		rep.setP99(name+"_p99_us", d)
	}
	for _, name := range []string{"ingest.accepted", "ingest.shed", "ingest.shed_emergency", "ingest.backpressure", "ingest.queue_depth_max", "core.transitions"} {
		rep.set(name, float64(tr.counter(name)))
	}
	rep.set("core.weights_per_transition", ratio(float64(tr.counter("core.weights")), float64(tr.counter("core.transitions"))))
}
