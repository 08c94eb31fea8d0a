package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// Well-known metric names written by Hooks. The /healthz summary and the
// operator dashboards key on these.
const (
	// MetricLevel is a gauge holding the active pruning level index.
	MetricLevel = "rpn_level"
	// MetricSparsity is a gauge holding the active level's weight sparsity.
	MetricSparsity = "rpn_sparsity"
	// MetricTransitions counts completed level transitions (any pair).
	MetricTransitions = "rpn_transitions_total"
	// MetricRestores counts transitions that landed on the dense level L0 —
	// the safety-critical RestoreFull path.
	MetricRestores = "rpn_restores_total"
	// MetricWeightsMoved counts individual weights written by transitions.
	MetricWeightsMoved = "rpn_weights_moved_total"
	// MetricTransitionLatency is the per-transition latency histogram (µs).
	MetricTransitionLatency = "rpn_transition_latency_us"
	// MetricLayerTransitionLatency is the base name of the per-parameter
	// transition-latency histograms (µs). Each series carries a
	// layer="<parameter>" label (see LabelLayer); together they decompose
	// MetricTransitionLatency and localize a slow delta application to the
	// parameter whose weights it was writing.
	MetricLayerTransitionLatency = "rpn_layer_transition_latency_us"
	// LabelLayer is the label key of the per-layer latency series: the
	// parameter name the delta application wrote (e.g. "conv1.w").
	LabelLayer = "layer"
	// LabelModel is the label key identifying a model instance in a fleet
	// deployment. Hooks constructed with NewHooks(reg, Label{LabelModel,
	// name}) stamp it onto every series they write.
	LabelModel = "model"
	// MetricRestoreLatency is the latency histogram (µs) of transitions to
	// L0 only — the paper's headline restore-latency quantity (F3), live.
	MetricRestoreLatency = "rpn_restore_latency_us"
	// MetricGovernorTicks counts governor control ticks.
	MetricGovernorTicks = "rpn_governor_ticks_total"
	// MetricGovernorTickLatency is the per-tick decision+execute latency
	// histogram (µs).
	MetricGovernorTickLatency = "rpn_governor_tick_us"
	// MetricLevelSwitches counts ticks on which the governor changed level.
	MetricLevelSwitches = "rpn_level_switches_total"
	// MetricContractClamps counts ticks on which contract enforcement
	// overrode the policy's proposal.
	MetricContractClamps = "rpn_contract_clamps_total"
	// MetricContractViolations counts ticks the governor logged a contract
	// violation (even the dense level missed the active floor).
	MetricContractViolations = "rpn_contract_violations_total"
	// MetricFrames counts perception frames classified.
	MetricFrames = "rpn_frames_total"
	// MetricFrameLatency is the per-frame detection latency histogram (µs),
	// including lock wait in the concurrent pipeline.
	MetricFrameLatency = "rpn_frame_latency_us"
	// MetricFleetRebalances counts fleet budget-governor rebalance passes.
	MetricFleetRebalances = "rpn_fleet_rebalances_total"
	// MetricFleetRetargets counts per-instance level retargets issued by
	// rebalance passes (0 on a pass that left every instance in place).
	MetricFleetRetargets = "rpn_fleet_retargets_total"
	// MetricFleetEnergy is a gauge holding the fleet's aggregate calibrated
	// per-inference energy (mJ) after the last rebalance.
	MetricFleetEnergy = "rpn_fleet_energy_mj"
	// MetricFleetLatency is a gauge holding the fleet's aggregate calibrated
	// per-inference latency (ms) after the last rebalance.
	MetricFleetLatency = "rpn_fleet_latency_ms"
	// MetricFleetOverBudget is a gauge that is 1 while the fleet cannot meet
	// its budget even at every instance's deepest admissible level, else 0.
	MetricFleetOverBudget = "rpn_fleet_over_budget"
	// MetricFleetRebalanceLatency is the rebalance-pass latency histogram (µs).
	MetricFleetRebalanceLatency = "rpn_fleet_rebalance_latency_us"
	// MetricFaultInjections counts fault events an injection harness
	// (internal/fault) actually fired, one series per fault kind (see
	// LabelFault). Zero outside chaos drills.
	MetricFaultInjections = "rpn_fault_injections_total"
	// LabelFault is the label key of the fault-injection counter: the fault
	// spec kind that fired (e.g. "nan-weights").
	LabelFault = "fault"
	// MetricHealthState is a gauge holding the instance's health state as an
	// integer: 0 Healthy, 1 Degraded, 2 Probation, 3 Quarantined (see
	// HealthStateName).
	MetricHealthState = "rpn_health_state"
	// MetricHealthTransitions counts health state-machine transitions
	// (excluding the initial registration at Healthy).
	MetricHealthTransitions = "rpn_health_transitions_total"
	// MetricHealthFaults counts fault observations the health monitor
	// attributed to the instance, one series per reason (see LabelReason).
	MetricHealthFaults = "rpn_health_faults_total"
	// LabelReason is the label key of the health-fault counter: what the
	// watchdog saw ("nan", "deadline", "error", "panic").
	LabelReason = "reason"
	// MetricHealthRestores counts emergency restores to the dense level L0
	// the health monitor forced in response to a NaN output or a deadline
	// breach, before degrading the instance.
	MetricHealthRestores = "rpn_health_emergency_restores_total"
	// MetricStoreResidentBytes is a gauge holding the instance's private
	// (unshared) weight bytes: non-prunable copies plus any prunable buffers
	// materialized by copy-on-write. A fleet clone starts near zero and
	// grows only as transitions touch parameters.
	MetricStoreResidentBytes = "rpn_store_resident_bytes"
	// MetricStoreSharedRatio is a gauge in [0, 1]: the fraction of the
	// instance's total weight+store bytes served by the shared checkpoint
	// store. 1 means fully aliased; it decays as copy-on-write privatizes
	// buffers (Privatize drops it to the non-prunable share).
	MetricStoreSharedRatio = "rpn_store_shared_ratio"
	// MetricStoreChecksumVerifications counts per-level integrity-checksum
	// verifications run on the restore path (one per level crossed toward
	// dense), passes and failures alike.
	MetricStoreChecksumVerifications = "rpn_store_checksum_verifications_total"
	// MetricStoreChecksumFailures counts checksum verifications that failed —
	// the restore was refused and the recovery store is corrupt. Any movement
	// is an incident: the corruption is unrecoverable by design and the
	// watchdog quarantines the instance permanently.
	MetricStoreChecksumFailures = "rpn_store_checksum_failures_total"
	// MetricIngestAccepted counts frames the ingestion front end accepted
	// into a criticality queue, one series per safety class (see
	// LabelClass). Every accepted frame is owed a result — served, shed, or
	// flushed at drain — so accepted = served + shed always balances.
	MetricIngestAccepted = "rpn_ingest_accepted_total"
	// MetricIngestRejected counts frames and connections the front end
	// refused at admission, one series per typed reason (see LabelReason:
	// "rate-limited", "conn-limit", "draining", "bad-frame", "too-large",
	// "protocol"). Rejected work never entered a queue and is not owed a
	// result beyond the reject itself.
	MetricIngestRejected = "rpn_ingest_rejected_total"
	// MetricIngestShed counts accepted frames the load-shedder dropped to
	// make room under overload, one series per safety class. The shedder
	// evicts lowest class first, so movement in a high class means the
	// queue is saturated with even higher classes — an incident signal.
	MetricIngestShed = "rpn_ingest_shed_total"
	// MetricIngestBackpressure counts advisory RETRY-AFTER frames sent to
	// clients because queue depth crossed the high watermark.
	MetricIngestBackpressure = "rpn_ingest_backpressure_total"
	// MetricIngestConnections is a gauge holding currently admitted
	// connections across all tenants.
	MetricIngestConnections = "rpn_ingest_connections"
	// MetricIngestQueueDepth is a gauge holding the criticality queue's
	// depth, one series per safety class (see LabelClass).
	MetricIngestQueueDepth = "rpn_ingest_queue_depth"
	// MetricIngestEnqueueLatency is the histogram (µs) of the time an
	// accepted frame spends between arrival and landing in its criticality
	// queue — admission, rate-limit, and shed decisions included. Staying
	// bounded under overload is the sheds-before-blocking property the
	// bench gate enforces.
	MetricIngestEnqueueLatency = "rpn_ingest_enqueue_latency_us"
	// MetricIngestFrameLatency is the histogram (µs) of accepted frames'
	// full ingest round-trip: arrival to result written back (queue wait
	// and inference included). Shed frames are excluded — their turnaround
	// is the shedder's, not the pipeline's.
	MetricIngestFrameLatency = "rpn_ingest_frame_latency_us"
	// LabelClass is the label key of the per-criticality ingest series: the
	// frame's safety class name ("nominal", "elevated", "critical",
	// "emergency").
	LabelClass = "class"
	// metricResidencyPrefix prefixes the per-level residency-tick counters:
	// rpn_level_residency_ticks_L0, _L1, …
	metricResidencyPrefix = "rpn_level_residency_ticks_L"
)

// Health state codes written to the MetricHealthState gauge. They mirror
// internal/health's state machine without telemetry importing it (telemetry
// stays a stdlib-only leaf); internal/health asserts the two stay aligned.
const (
	// HealthHealthy: the instance serves frames normally.
	HealthHealthy = 0
	// HealthDegraded: recent faults; still serving, under scrutiny.
	HealthDegraded = 1
	// HealthProbation: re-admitted after quarantine, must stay clean.
	HealthProbation = 2
	// HealthQuarantined: fenced off — no frames, no governor ticks.
	HealthQuarantined = 3
)

// HealthStateName renders a MetricHealthState gauge value for human
// surfaces (the /healthz document, log lines, operator tables).
func HealthStateName(state int) string {
	switch state {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthProbation:
		return "probation"
	case HealthQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("unknown(%d)", state)
}

// hookFamilies lists every fixed metric family Hooks writes, so NewHooks
// can pre-render the labeled series identifiers once. Per-level residency
// counters and per-layer histograms are rendered separately (SetLevels and
// the layer cache).
var hookFamilies = []string{
	MetricLevel,
	MetricSparsity,
	MetricTransitions,
	MetricRestores,
	MetricWeightsMoved,
	MetricTransitionLatency,
	MetricRestoreLatency,
	MetricGovernorTicks,
	MetricGovernorTickLatency,
	MetricLevelSwitches,
	MetricContractClamps,
	MetricContractViolations,
	MetricFrames,
	MetricFrameLatency,
	MetricFleetRebalances,
	MetricFleetRetargets,
	MetricFleetEnergy,
	MetricFleetLatency,
	MetricFleetOverBudget,
	MetricFleetRebalanceLatency,
	MetricHealthState,
	MetricHealthTransitions,
	MetricHealthRestores,
	MetricStoreResidentBytes,
	MetricStoreSharedRatio,
	MetricStoreChecksumVerifications,
	MetricStoreChecksumFailures,
	MetricIngestBackpressure,
	MetricIngestConnections,
	MetricIngestEnqueueLatency,
	MetricIngestFrameLatency,
}

// Hooks adapts a Registry to the observer seams of the stack. Its method
// set structurally satisfies core.TransitionObserver (including the
// optional core.ParamTransitionObserver and core.StoreObserver
// extensions), governor.TickObserver, perception.FrameObserver and
// fleet.RebalanceObserver without this package importing any of them,
// keeping telemetry a stdlib-only leaf.
//
// A Hooks may carry constant base labels (NewHooks(reg, Label{LabelModel,
// "car0"})): every series it writes is then rendered with those labels, so
// N instances sharing one Registry stay distinguishable per series. Series
// identifiers are pre-rendered at construction; the observation hot paths
// never build label strings.
//
// Configure (SetLevels) before sharing a Hooks across goroutines; after
// that every method is safe for concurrent use (the registry serializes).
type Hooks struct {
	reg *Registry
	// base is the constant label set stamped onto every series. Immutable
	// after NewHooks.
	base []Label
	// names maps each fixed metric family to its pre-rendered series
	// identifier under base. Immutable after NewHooks.
	names map[string]string
	// sparsities[i] is level i's weight sparsity, for the MetricSparsity
	// gauge. Immutable after SetLevels.
	sparsities []float64
	// residency[i] is the precomputed per-level residency series, so the
	// per-tick path does not format strings.
	residency []string
	// dynMu guards dynSeries, the lazily built cache of dynamically labeled
	// series identifiers (per-layer histograms, per-kind fault counters,
	// per-reason health-fault counters), so steady-state observations don't
	// re-render labels.
	dynMu     sync.Mutex
	dynSeries map[string]string
}

// NewHooks wires a Hooks to the registry. Optional base labels (typically
// one Label{LabelModel, "<instance>"}) are stamped onto every series the
// Hooks writes; with no labels the series are the flat metric names.
func NewHooks(reg *Registry, base ...Label) *Hooks {
	h := &Hooks{reg: reg}
	for _, l := range base {
		if l.Key != "" {
			h.base = append(h.base, l)
		}
	}
	h.names = make(map[string]string, len(hookFamilies))
	for _, f := range hookFamilies {
		h.names[f] = Series(f, h.base...)
	}
	return h
}

// name returns the pre-rendered series identifier for a fixed family,
// falling back to rendering for names outside the precomputed set.
func (h *Hooks) name(family string) string {
	if s, ok := h.names[family]; ok {
		return s
	}
	return Series(family, h.base...)
}

// SetLevels records the level library's sparsities (index = level id) and
// precomputes the residency counter names. Call once, at wiring time,
// before the stack starts ticking.
func (h *Hooks) SetLevels(sparsities []float64) {
	h.sparsities = append([]float64(nil), sparsities...)
	h.residency = make([]string, len(sparsities))
	for i := range h.residency {
		h.residency[i] = Series(residencyMetric(i), h.base...)
	}
	if len(sparsities) > 0 {
		h.reg.SetGauge(h.name(MetricLevel), 0)
		h.reg.SetGauge(h.name(MetricSparsity), sparsities[0])
	}
}

// residencyMetric returns the residency counter name for a level index.
func residencyMetric(level int) string {
	return fmt.Sprintf("%s%d", metricResidencyPrefix, level)
}

// ResidencyMetric returns the residency-tick counter name for a level, for
// tests and dashboards.
func ResidencyMetric(level int) string { return residencyMetric(level) }

// ObserveTransition implements the core.TransitionObserver seam: called by
// ReversibleModel.ApplyLevel after every completed level change with the
// number of weights written and the wall-clock latency.
func (h *Hooks) ObserveTransition(from, to int, weights int64, elapsed time.Duration) {
	h.reg.Inc(h.name(MetricTransitions))
	h.reg.Add(h.name(MetricWeightsMoved), weights)
	h.reg.ObserveDuration(h.name(MetricTransitionLatency), elapsed)
	if to == 0 {
		h.reg.Inc(h.name(MetricRestores))
		h.reg.ObserveDuration(h.name(MetricRestoreLatency), elapsed)
	}
	h.reg.SetGauge(h.name(MetricLevel), float64(to))
	if to >= 0 && to < len(h.sparsities) {
		h.reg.SetGauge(h.name(MetricSparsity), h.sparsities[to])
	}
}

// ObserveParamTransition implements the core.ParamTransitionObserver
// extension seam: called by ReversibleModel.ApplyLevel once per delta
// application (one parameter at one level step) with the weights written
// and the wall-clock latency of just that parameter's writes. The sample
// lands in the layer-labeled series
// rpn_layer_transition_latency_us{layer="<param>"} (plus any base labels).
func (h *Hooks) ObserveParamTransition(from, to int, param string, weights int64, elapsed time.Duration) {
	h.reg.ObserveDuration(h.dynamicSeries(MetricLayerTransitionLatency, LabelLayer, param), elapsed)
}

// dynamicSeries returns (rendering and caching on first sight) the labeled
// series identifier for a family carrying one runtime-valued label on top
// of the base labels.
func (h *Hooks) dynamicSeries(family, labelKey, labelValue string) string {
	cacheKey := family + "\x00" + labelValue
	h.dynMu.Lock()
	defer h.dynMu.Unlock()
	s, ok := h.dynSeries[cacheKey]
	if !ok {
		if h.dynSeries == nil {
			h.dynSeries = make(map[string]string)
		}
		ls := make([]Label, 0, len(h.base)+1)
		ls = append(ls, h.base...)
		ls = append(ls, Label{Key: labelKey, Value: labelValue})
		s = Series(family, ls...)
		h.dynSeries[cacheKey] = s
	}
	return s
}

// LayerSeries returns the rendered per-layer latency series identifier for
// a parameter name, for tests and dashboards:
// rpn_layer_transition_latency_us{layer="<param>"}.
func LayerSeries(param string) string {
	return Series(MetricLayerTransitionLatency, Label{Key: LabelLayer, Value: param})
}

// ObserveTick implements the governor.TickObserver seam: called once per
// control tick with the applied level and the decision outcome flags.
func (h *Hooks) ObserveTick(tick, level int, switched, clamped, violated bool, elapsed time.Duration) {
	h.reg.Inc(h.name(MetricGovernorTicks))
	h.reg.ObserveDuration(h.name(MetricGovernorTickLatency), elapsed)
	if switched {
		h.reg.Inc(h.name(MetricLevelSwitches))
	}
	if clamped {
		h.reg.Inc(h.name(MetricContractClamps))
	}
	if violated {
		h.reg.Inc(h.name(MetricContractViolations))
	}
	if level >= 0 && level < len(h.residency) {
		h.reg.Inc(h.residency[level])
	} else {
		h.reg.Inc(Series(residencyMetric(level), h.base...))
	}
}

// ObserveFrame implements the perception.FrameObserver seam: called per
// classified frame with the end-to-end detection latency.
func (h *Hooks) ObserveFrame(elapsed time.Duration) {
	h.reg.Inc(h.name(MetricFrames))
	h.reg.ObserveDuration(h.name(MetricFrameLatency), elapsed)
}

// ObserveRebalance implements the fleet.RebalanceObserver seam: called
// after every fleet budget-governor rebalance pass with the number of
// instance retargets issued, the resulting aggregate energy/latency, the
// over-budget flag, and the pass's wall-clock latency. Fleet-level series
// are typically written through a flat (unlabeled) Hooks while the
// per-instance series go through model-labeled ones.
func (h *Hooks) ObserveRebalance(retargets int, energyMJ, latencyMS float64, overBudget bool, elapsed time.Duration) {
	h.reg.Inc(h.name(MetricFleetRebalances))
	h.reg.Add(h.name(MetricFleetRetargets), int64(retargets))
	h.reg.SetGauge(h.name(MetricFleetEnergy), energyMJ)
	h.reg.SetGauge(h.name(MetricFleetLatency), latencyMS)
	over := 0.0
	if overBudget {
		over = 1
	}
	h.reg.SetGauge(h.name(MetricFleetOverBudget), over)
	h.reg.ObserveDuration(h.name(MetricFleetRebalanceLatency), elapsed)
}

// ObserveStoreCheck implements half of the core.StoreObserver seam: called
// by ReversibleModel.ApplyLevel for every per-level integrity-checksum
// verification on the restore path, with whether the level's displaced
// values matched their sealed checksum. A failure means the restore was
// refused — rpn_store_checksum_failures_total moving is an incident signal.
func (h *Hooks) ObserveStoreCheck(ok bool) {
	h.reg.Inc(h.name(MetricStoreChecksumVerifications))
	if !ok {
		h.reg.Inc(h.name(MetricStoreChecksumFailures))
	}
}

// ObserveStoreResidency implements the other half of the core.StoreObserver
// seam: called whenever the instance's copy-on-write residency changes (a
// buffer materialized, Privatize ran, the observer was installed) with the
// private byte count and the shared fraction of its total footprint.
func (h *Hooks) ObserveStoreResidency(privateBytes int64, sharedRatio float64) {
	h.reg.SetGauge(h.name(MetricStoreResidentBytes), float64(privateBytes))
	h.reg.SetGauge(h.name(MetricStoreSharedRatio), sharedRatio)
}

// ObserveFaultInjection implements the fault.Observer seam: called by an
// injection harness every time a fault actually fired, with the fault spec
// kind. The counter stays at zero outside chaos drills — any movement in
// production is itself an incident signal.
func (h *Hooks) ObserveFaultInjection(kind string) {
	h.reg.Inc(h.dynamicSeries(MetricFaultInjections, LabelFault, kind))
}

// ObserveHealthFault implements half of the health.Observer seam: called by
// the health monitor for every fault it attributes to the instance, with
// the watchdog's reason ("nan", "deadline", "error", "panic") and whether
// the monitor forced an emergency restore to L0 in response.
func (h *Hooks) ObserveHealthFault(reason string, restored bool) {
	h.reg.Inc(h.dynamicSeries(MetricHealthFaults, LabelReason, reason))
	if restored {
		h.reg.Inc(h.name(MetricHealthRestores))
	}
}

// ObserveIngestAccepted implements part of the ingest.Observer seam:
// called by the front end when a frame is accepted into its criticality
// queue, with the frame's safety class name.
func (h *Hooks) ObserveIngestAccepted(class string) {
	h.reg.Inc(h.dynamicSeries(MetricIngestAccepted, LabelClass, class))
}

// ObserveIngestRejected implements part of the ingest.Observer seam:
// called when admission refuses a frame or connection, with the typed
// reject reason.
func (h *Hooks) ObserveIngestRejected(reason string) {
	h.reg.Inc(h.dynamicSeries(MetricIngestRejected, LabelReason, reason))
}

// ObserveIngestShed implements part of the ingest.Observer seam: called
// when the load-shedder drops an accepted frame under overload, with the
// victim's safety class name.
func (h *Hooks) ObserveIngestShed(class string) {
	h.reg.Inc(h.dynamicSeries(MetricIngestShed, LabelClass, class))
}

// ObserveIngestBackpressure implements part of the ingest.Observer seam:
// called for every advisory RETRY-AFTER the server pushes to a client.
func (h *Hooks) ObserveIngestBackpressure() {
	h.reg.Inc(h.name(MetricIngestBackpressure))
}

// SetIngestConnections implements part of the ingest.Observer seam: the
// currently admitted connection count across tenants.
func (h *Hooks) SetIngestConnections(n int) {
	h.reg.SetGauge(h.name(MetricIngestConnections), float64(n))
}

// SetIngestQueueDepth implements part of the ingest.Observer seam: one
// criticality class's current queue depth.
func (h *Hooks) SetIngestQueueDepth(class string, depth int) {
	h.reg.SetGauge(h.dynamicSeries(MetricIngestQueueDepth, LabelClass, class), float64(depth))
}

// ObserveIngestEnqueue implements part of the ingest.Observer seam: the
// arrival-to-queued latency of one accepted frame.
func (h *Hooks) ObserveIngestEnqueue(elapsed time.Duration) {
	h.reg.ObserveDuration(h.name(MetricIngestEnqueueLatency), elapsed)
}

// ObserveIngestFrameLatency implements part of the ingest.Observer seam:
// one accepted frame's full ingest round-trip, arrival to result written.
func (h *Hooks) ObserveIngestFrameLatency(elapsed time.Duration) {
	h.reg.ObserveDuration(h.name(MetricIngestFrameLatency), elapsed)
}

// ObserveHealthState implements the other half of the health.Observer seam:
// called on registration (from == to == Healthy) and after every state
// change with the integer state codes (see HealthStateName). The gauge
// always tracks the latest state; the transition counter ignores the
// registration no-op.
func (h *Hooks) ObserveHealthState(from, to int) {
	h.reg.SetGauge(h.name(MetricHealthState), float64(to))
	if from != to {
		h.reg.Inc(h.name(MetricHealthTransitions))
	}
}
