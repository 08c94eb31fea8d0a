// Command simdrive runs one driving scenario through the closed
// perception/adaptation loop and prints the adaptation timeline: what the
// safety monitor saw, what the governor did, and what it cost.
//
//	simdrive -scenario cut-in -policy hysteresis
//	simdrive -scenario pedestrian-fog -policy threshold -csv timeline.csv
//
// With -fleet N > 1 simdrive runs N independent model instances as a
// sharded fleet: each vehicle gets its own trained model, scenario
// (cycling through the library starting at -scenario), and world seed,
// all driving concurrently. -fleet-budget-mj adds a fleet budget governor
// that rebalances prune levels during the run to hold the aggregate
// per-inference energy envelope. Per-model telemetry series carry a
// model="carN" label on the shared registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/perception"
	"repro/internal/platform"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/otlp"
)

func main() {
	scenarioName := flag.String("scenario", "cut-in", "scenario: highway-cruise, urban-traffic, cut-in, pedestrian, sensor-degradation, pedestrian-fog")
	policyName := flag.String("policy", "hysteresis", "governor policy: static-dense, static-deep, threshold, hysteresis, predictive")
	seed := flag.Int64("seed", 42, "world seed")
	csvPath := flag.String("csv", "", "optional path to write the per-tick timeline as CSV (per-vehicle files in fleet mode)")
	every := flag.Int("every", 100, "print one timeline row every N ticks (single-model mode)")
	telemetryAddr := flag.String("telemetry", "", "serve /healthz and /metrics on this address (e.g. :8080) during the run")
	otlpEndpoint := flag.String("otlp-endpoint", "", "export OTLP/HTTP metrics to this collector (e.g. localhost:4318) during the run")
	fleetSize := flag.Int("fleet", 1, "number of model instances to run as a fleet (1 = single-model mode)")
	fleetBudget := flag.Float64("fleet-budget-mj", 0, "aggregate per-inference energy budget (mJ) a fleet governor holds during the run (0 = no budget; fleet mode only)")
	chaos := flag.String("chaos", "", "arm a chaos drill: comma-separated fault specs, e.g. nan-weights:car1:after=1,drop-frames:car2:after=40:for=3 (fleet mode only; with -serve, wire faults on the listener)")
	windowFile := flag.String("window-file", "", "persist telemetry time windows to this append-only file (replayed on the next run; requires -telemetry or -otlp-endpoint)")
	serveAddr := flag.String("serve", "", "serve the fleet behind the ingest front end on this address (e.g. :9077) instead of driving scenarios")
	replayAddr := flag.String("replay", "", "stream synthetic frames at a running ingest front end on this address instead of driving scenarios")
	vehicles := flag.Int("vehicles", 8, "replay mode: number of concurrent vehicle connections")
	frames := flag.Int("frames", 200, "replay mode: frames per vehicle")
	interval := flag.Duration("interval", 0, "replay mode: pause between one vehicle's frames (0 = as fast as admitted)")
	ingestQueue := flag.Int("ingest-queue", 0, "serve mode: criticality queue capacity (0 = default)")
	ingestFPS := flag.Float64("ingest-fps", 0, "serve mode: per-tenant frames/sec admission limit (0 = unlimited)")
	ingestConns := flag.Int("ingest-conns", 0, "serve mode: per-tenant connection cap (0 = unlimited)")
	flag.Parse()

	var err error
	switch {
	case *replayAddr != "":
		err = runReplayCmd(*replayAddr, *vehicles, *frames, *seed, *interval)
	case *serveAddr != "":
		err = runServe(serveOptions{
			Addr:          *serveAddr,
			Fleet:         *fleetSize,
			Seed:          *seed,
			TelemetryAddr: *telemetryAddr,
			Chaos:         *chaos,
			QueueCap:      *ingestQueue,
			FramesPerSec:  *ingestFPS,
			MaxConns:      *ingestConns,
		})
	default:
		err = run(*scenarioName, *policyName, *seed, *csvPath, *every, *telemetryAddr, *otlpEndpoint, *fleetSize, *fleetBudget, *chaos, *windowFile, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdrive:", err)
		os.Exit(1)
	}
}

func findScenario(name string) (sim.Scenario, error) {
	return sim.FindScenario(name)
}

// run executes one scenario (fleetSize == 1) or a fleet of concurrent
// instances (fleetSize > 1). When telemetryAddr is non-empty, a telemetry
// server exposes /healthz and /metrics for the duration of the run; when
// otlpEndpoint is non-empty, an OTLP exporter pushes the same registry to
// that collector (final flush on shutdown, so runs shorter than the export
// interval still deliver). chaos, when non-empty, is a fault-spec list
// (see internal/fault) armed over the run's seed — fleet mode only, so a
// drill always has healthy instances to measure the blast radius against.
// windowFile, when non-empty, persists the registry's flushed time windows
// to that append-only file (replaying whatever a previous run left there).
// probe, when non-nil, is invoked with the server's base URL after the run
// completes and before the server shuts down (tests hook it to scrape the
// live endpoints).
func run(scenarioName, policyName string, seed int64, csvPath string, every int, telemetryAddr, otlpEndpoint string, fleetSize int, fleetBudgetMJ float64, chaos, windowFile string, probe func(baseURL string)) error {
	sc, err := findScenario(scenarioName)
	if err != nil {
		return err
	}
	if fleetSize < 1 {
		return fmt.Errorf("fleet size %d (want ≥ 1)", fleetSize)
	}
	var inj *fault.Injector
	if chaos != "" {
		specs, err := fault.ParseSpecs(chaos)
		if err != nil {
			return err
		}
		if fleetSize < 2 {
			return fmt.Errorf("-chaos drills run against a fleet: want -fleet ≥ 2, got %d", fleetSize)
		}
		inj = fault.NewInjector(seed, specs...)
		fmt.Printf("chaos: armed %s (seed %d)\n", fault.FormatSpecs(specs), seed)
	}

	var reg *telemetry.Registry
	var tsrv *telemetry.Server
	if telemetryAddr != "" || otlpEndpoint != "" {
		reg = telemetry.NewRegistry()
		if windowFile != "" {
			if err := reg.Persist(windowFile); err != nil {
				return err
			}
			fmt.Printf("telemetry: window persistence at %s\n", windowFile)
		}
		// Roll hot-path samples into time windows for the duration of the
		// run; Close takes the final flush (and persists it) on the way out.
		reg.StartAggregator(250 * time.Millisecond)
		defer func() {
			if err := reg.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "simdrive: telemetry close:", err)
			}
		}()
		if inj != nil {
			// Fired faults land on the shared registry unlabeled: the kind
			// label already identifies them, and outage faults have no model.
			inj.SetObserver(telemetry.NewHooks(reg))
		}
		if telemetryAddr != "" {
			tsrv, err = telemetry.Serve(reg, telemetryAddr)
			if err != nil {
				return err
			}
			defer tsrv.Close()
			fmt.Printf("telemetry: http://%s/healthz and /metrics\n", tsrv.Addr())
		}
		if otlpEndpoint != "" {
			eopts := []otlp.ExporterOption{otlp.WithServiceName("simdrive")}
			if inj != nil {
				// Route exports through the injector's transport so armed
				// otlp-outage windows fail POSTs before they reach the wire.
				eopts = append(eopts, otlp.WithHTTPClient(&http.Client{
					Timeout:   5 * time.Second,
					Transport: inj.Transport(nil),
				}))
			}
			exp, err := otlp.NewExporter(reg, otlpEndpoint, eopts...)
			if err != nil {
				return err
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := exp.Shutdown(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "simdrive: otlp shutdown:", err)
				}
			}()
			fmt.Printf("otlp: exporting to %s\n", exp.URL())
		}
	} else if windowFile != "" {
		return fmt.Errorf("-window-file needs a telemetry registry: pass -telemetry or -otlp-endpoint")
	}

	if fleetSize == 1 {
		err = runSolo(sc, policyName, seed, csvPath, every, reg)
	} else {
		err = runFleet(sc, policyName, seed, csvPath, fleetSize, fleetBudgetMJ, reg, inj)
	}
	if err != nil {
		return err
	}
	if probe != nil && tsrv != nil {
		probe("http://" + tsrv.Addr())
	}
	return nil
}

// runSolo is the classic single-model closed loop with the per-tick
// timeline print.
func runSolo(sc sim.Scenario, policyName string, seed int64, csvPath string, every int, reg *telemetry.Registry) error {
	fmt.Println("training perception model (deterministic, ~seconds)…")
	z := experiments.NewZoo(1)
	spec := platform.EmbeddedCPU()
	model, rm, err := z.ObstacleStack(nil, spec)
	if err != nil {
		return err
	}

	govOpts := []governor.Option{governor.WithTrace()}
	if reg != nil {
		hooks := telemetry.NewHooks(reg)
		sp := make([]float64, rm.NumLevels())
		for i, lvl := range rm.Levels() {
			sp[i] = lvl.Sparsity
		}
		hooks.SetLevels(sp)
		rm.SetObserver(hooks)
		govOpts = append(govOpts, governor.WithObserver(hooks))
	}

	var gov *governor.Governor
	switch policyName {
	case "static-dense":
		// No governor; model stays dense.
	case "static-deep":
		if err := rm.ApplyLevel(rm.NumLevels() - 1); err != nil {
			return err
		}
	case "threshold":
		gov, err = governor.New(rm, governor.Threshold{}, safety.DefaultContract(), govOpts...)
	case "hysteresis":
		gov, err = governor.New(rm, &governor.Hysteresis{DwellTicks: 20}, safety.DefaultContract(), govOpts...)
	case "predictive":
		gov, err = governor.New(rm, &governor.Predictive{}, safety.DefaultContract(), govOpts...)
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	if err != nil {
		return err
	}

	res, err := perception.RunScenario(sc, model, rm, perception.LoopConfig{
		FrameSize: 16,
		Spec:      spec,
		Governor:  gov,
		Record:    true,
		Seed:      seed,
	})
	if err != nil {
		return err
	}

	tb := metrics.NewTable(
		fmt.Sprintf("timeline: %s under %s (every %d ticks)", sc.Name, policyName, every),
		"tick", "ttc s", "score", "class", "level", "truth", "detected",
	)
	rec := res.Recorder
	for tick := 0; tick < res.Ticks; tick += every {
		ttc := rec.Series("ttc")[tick]
		ttcStr := "∞"
		if ttc >= 0 {
			ttcStr = metrics.F(ttc, 2)
		}
		tb.AddRow(
			fmt.Sprintf("%d", tick),
			ttcStr,
			metrics.F(rec.Series("score")[tick], 3),
			safety.Criticality(int(rec.Series("class")[tick])).String(),
			fmt.Sprintf("L%d", int(rec.Series("level")[tick])),
			metrics.F(rec.Series("truth")[tick], 0),
			metrics.F(rec.Series("detected")[tick], 0),
		)
	}
	fmt.Print(tb.String())

	sum := metrics.NewTable("run summary", "metric", "value")
	sum.AddRow("ticks", fmt.Sprintf("%d", res.Ticks))
	sum.AddRow("collided", fmt.Sprintf("%v", res.Collided))
	sum.AddRow("obstacle frames", fmt.Sprintf("%d", res.ObstacleTicks))
	sum.AddRow("missed", fmt.Sprintf("%d", res.Missed))
	sum.AddRow("missed critical", fmt.Sprintf("%d", res.MissedCritical))
	sum.AddRow("false alarms", fmt.Sprintf("%d", res.FalseAlarms))
	sum.AddRow("level switches", fmt.Sprintf("%d", res.Switches))
	sum.AddRow("contract violations", fmt.Sprintf("%d", res.Violations))
	sum.AddRow("mean level", metrics.F(res.MeanLevel, 2))
	sum.AddRow("energy (mJ)", metrics.F(res.EnergyMJ, 2))
	detected := 0
	var gaps []float64
	for _, g := range res.DetectionGaps {
		if g >= 0 {
			detected++
			gaps = append(gaps, g)
		}
	}
	sum.AddRow("obstacle episodes detected", fmt.Sprintf("%d/%d", detected, len(res.DetectionGaps)))
	if len(gaps) > 0 {
		sum.AddRow("median detection distance (m)", metrics.F(metrics.Percentile(gaps, 50), 1))
	}
	fmt.Print(sum.String())

	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(res.Recorder.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("timeline CSV written to %s\n", csvPath)
	}
	return nil
}

// fleetVehicle pairs one fleet instance with the health guard its closed
// loop actually drives, plus the scenario and seed.
type fleetVehicle struct {
	inst  *fleet.Instance
	guard *health.Guard
	sc    sim.Scenario
	seed  int64
}

// runFleet builds n instances named car0..car(n-1) — each with its own
// trained model, governor, and (when reg is non-nil) model-labeled
// telemetry hooks — and drives them concurrently, each through its own
// scenario (cycling from base) and world seed. A positive budget starts a
// fleet budget governor that rebalances prune levels throughout the run.
//
// Every vehicle loop runs behind a health.Guard: the per-instance watchdog
// fences a faulting instance off (quarantine + emergency restore to dense)
// while the rest of the fleet keeps driving. inj, when non-nil, arms the
// instances' fault points for a chaos drill.
func runFleet(base sim.Scenario, policyName string, seed int64, csvPath string, n int, budgetMJ float64, reg *telemetry.Registry, inj *fault.Injector) error {
	scens := sim.AllScenarios()
	baseIdx := 0
	for i, s := range scens {
		if s.Name == base.Name {
			baseIdx = i
			break
		}
	}

	fmt.Printf("training perception model and cloning %d fleet instances (deterministic, ~seconds)…\n", n)
	z := experiments.NewZoo(1)
	spec := platform.EmbeddedCPU()

	f := fleet.New()
	monitor := health.NewMonitor(health.Config{})
	vehicles := make([]fleetVehicle, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("car%d", i)
		// Clean fleets share one checkpoint store copy-on-write: every car
		// is a view over the same dense snapshot and recovery deltas. A
		// chaos drill instead builds each car its own stack — store-corrupt
		// flips bits in displaced values, and an unshared store keeps that
		// blast radius to the targeted car.
		var (
			model *nn.Sequential
			rm    *core.ReversibleModel
			err   error
		)
		if inj == nil {
			model, rm, err = z.ObstacleStackView(spec)
		} else {
			model, rm, err = z.ObstacleStack(nil, spec)
		}
		if err != nil {
			return err
		}
		pipe, err := perception.NewPipeline(model, 16, 0)
		if err != nil {
			return err
		}
		inst, err := fleet.NewInstance(name, pipe, rm)
		if err != nil {
			return err
		}
		if inj != nil {
			inst.SetFaultInjector(inj)
		}
		govOpts := []governor.Option{governor.WithTrace()}
		var hobs health.Observer
		if reg != nil {
			hooks := telemetry.NewHooks(reg, telemetry.Label{Key: telemetry.LabelModel, Value: name})
			sp := make([]float64, rm.NumLevels())
			for j, lvl := range rm.Levels() {
				sp[j] = lvl.Sparsity
			}
			hooks.SetLevels(sp)
			inst.SetModelObserver(hooks)
			inst.SetObserver(hooks)
			govOpts = append(govOpts, governor.WithObserver(hooks))
			hobs = hooks
		}
		// The instance is its own emergency restorer: a NaN or deadline
		// fault forces ApplyLevel(0), rewriting every pruned position from
		// the reversible store.
		if err := monitor.Register(name, inst, hobs); err != nil {
			return err
		}
		switch policyName {
		case "static-dense":
			// No governor; the instance stays dense unless the budget
			// governor retargets it.
		case "static-deep":
			err = inst.ApplyLevel(inst.NumLevels() - 1)
		case "threshold":
			err = inst.AttachGovernor(governor.Threshold{}, safety.DefaultContract(), govOpts...)
		case "hysteresis":
			err = inst.AttachGovernor(&governor.Hysteresis{DwellTicks: 20}, safety.DefaultContract(), govOpts...)
		case "predictive":
			err = inst.AttachGovernor(&governor.Predictive{}, safety.DefaultContract(), govOpts...)
		default:
			return fmt.Errorf("unknown policy %q", policyName)
		}
		if err != nil {
			return err
		}
		if err := f.Add(inst); err != nil {
			return err
		}
		vehicles = append(vehicles, fleetVehicle{
			inst:  inst,
			guard: health.NewGuard(name, inst, monitor),
			sc:    scens[(baseIdx+i)%len(scens)],
			seed:  seed + int64(i),
		})
	}

	// Views hold store references; detach them once the run is over so a
	// leaked reference in fleet teardown shows up as an error, not as
	// permanently resident recovery deltas.
	defer func() {
		if err := f.Release(); err != nil {
			fmt.Fprintln(os.Stderr, "simdrive: fleet teardown:", err)
		}
	}()

	// Watchdog-driven integrity scrubbing: while an instance sits at
	// Degraded, periodically re-enforce its masks so silent pruned-position
	// corruption is repaired before the fault streak reaches quarantine.
	scrubber := health.NewScrubber(monitor, 25*time.Millisecond, func(name string, repaired int64) {
		if repaired > 0 {
			fmt.Printf("health: scrub repaired %d pruned positions on %s\n", repaired, name)
		}
	})
	for _, v := range vehicles {
		scrubber.Track(v.inst.Name(), v.inst)
	}
	scrubber.Start(context.Background())
	defer scrubber.Stop()

	// Optional fleet budget governor: one initial pass so the fleet starts
	// inside the envelope, then a periodic rebalance loop for the duration
	// of the run.
	var bgWG sync.WaitGroup
	bgDone := make(chan struct{})
	if budgetMJ > 0 {
		bopts := []fleet.BudgetOption{fleet.WithHealthGate(monitor)}
		if reg != nil {
			bopts = append(bopts, fleet.WithRebalanceObserver(telemetry.NewHooks(reg)))
			// Close the measurement loop: rebalance passes read each car's
			// observed frame latency from the flushed time windows instead of
			// trusting the calibrated platform numbers alone.
			bopts = append(bopts, fleet.WithMeasuredLatency(
				telemetry.NewLatencyProbe(reg, telemetry.DefaultProbeLookback)))
		}
		bg, err := fleet.NewBudgetGovernor(f, fleet.Budget{EnergyMJ: budgetMJ}, bopts...)
		if err != nil {
			return err
		}
		if _, err := bg.Rebalance(); err != nil {
			return err
		}
		fmt.Printf("fleet: holding %s mJ aggregate per-inference energy budget\n", metrics.F(budgetMJ, 2))
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			t := time.NewTicker(25 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-bgDone:
					return
				case <-t.C:
					if _, err := bg.Rebalance(); err != nil {
						fmt.Fprintln(os.Stderr, "simdrive: rebalance:", err)
						return
					}
				}
			}
		}()
	}

	results := make([]perception.LoopResult, len(vehicles))
	errs := make([]error, len(vehicles))
	var wg sync.WaitGroup
	for i := range vehicles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := vehicles[i]
			results[i], errs[i] = perception.RunStack(v.sc, v.guard, perception.LoopConfig{
				FrameSize: 16,
				Spec:      spec,
				Record:    csvPath != "",
				Seed:      v.seed,
			})
		}(i)
	}
	wg.Wait()
	close(bgDone)
	bgWG.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s (%s): %w", vehicles[i].inst.Name(), vehicles[i].sc.Name, err)
		}
	}

	tb := metrics.NewTable(
		fmt.Sprintf("fleet summary: %d vehicles under %s", n, policyName),
		"model", "scenario", "ticks", "collided", "missed", "crit", "false+", "switches", "viol", "mean level", "energy mJ",
	)
	totalEnergy := 0.0
	totalSwitches, totalViolations, collisions := 0, 0, 0
	for i, v := range vehicles {
		r := results[i]
		tb.AddRow(
			v.inst.Name(),
			r.Scenario,
			fmt.Sprintf("%d", r.Ticks),
			fmt.Sprintf("%v", r.Collided),
			fmt.Sprintf("%d", r.Missed),
			fmt.Sprintf("%d", r.MissedCritical),
			fmt.Sprintf("%d", r.FalseAlarms),
			fmt.Sprintf("%d", r.Switches),
			fmt.Sprintf("%d", r.Violations),
			metrics.F(r.MeanLevel, 2),
			metrics.F(r.EnergyMJ, 2),
		)
		totalEnergy += r.EnergyMJ
		totalSwitches += r.Switches
		totalViolations += r.Violations
		if r.Collided {
			collisions++
		}
	}
	fmt.Print(tb.String())

	agg := metrics.NewTable("fleet aggregate", "metric", "value")
	agg.AddRow("vehicles", fmt.Sprintf("%d", n))
	agg.AddRow("collisions", fmt.Sprintf("%d", collisions))
	agg.AddRow("total level switches", fmt.Sprintf("%d", totalSwitches))
	agg.AddRow("total contract violations", fmt.Sprintf("%d", totalViolations))
	agg.AddRow("total energy (mJ)", metrics.F(totalEnergy, 2))
	fmt.Print(agg.String())

	states := monitor.States()
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	ht := metrics.NewTable("fleet health (end of run)", "model", "state")
	for _, name := range names {
		ht.AddRow(name, states[name].String())
	}
	fmt.Print(ht.String())

	if reg != nil {
		printWindowedLatency(reg)
	}

	if csvPath != "" {
		ext := filepath.Ext(csvPath)
		stem := strings.TrimSuffix(csvPath, ext)
		for i, v := range vehicles {
			path := fmt.Sprintf("%s.%s%s", stem, v.inst.Name(), ext)
			if err := os.WriteFile(path, []byte(results[i].Recorder.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("timeline CSV written to %s\n", path)
		}
	}
	return nil
}

// printWindowedLatency renders the per-model frame-latency time windows the
// run accumulated — the same aggregates a /healthz?window=&lookback= query
// returns, and the figures the measured-latency rebalance path acted on.
func printWindowedLatency(reg *telemetry.Registry) {
	series := reg.WindowQuery(telemetry.WindowQueryOptions{
		Metric:   telemetry.MetricFrameLatency,
		Lookback: time.Hour,
	})
	if len(series) == 0 {
		return
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wt := metrics.NewTable("fleet latency windows (µs per frame)",
		"series", "windows", "frames", "mean", "min", "p90", "p99", "max")
	for _, k := range keys {
		ws := series[k]
		var count int64
		var sum, min, max, p90, p99 float64
		for i, p := range ws.Points {
			count += p.Count
			sum += p.Sum
			if i == 0 || p.Min < min {
				min = p.Min
			}
			if p.Max > max {
				max = p.Max
			}
			// The newest window's sketch quantiles stand in for the span —
			// per-window sketches don't merge across the query result.
			p90, p99 = p.P90, p.P99
		}
		if count == 0 {
			continue
		}
		wt.AddRow(k,
			fmt.Sprintf("%d", len(ws.Points)),
			fmt.Sprintf("%d", count),
			metrics.F(sum/float64(count), 1),
			metrics.F(min, 1),
			metrics.F(p90, 1),
			metrics.F(p99, 1),
			metrics.F(max, 1),
		)
	}
	fmt.Print(wt.String())
}
