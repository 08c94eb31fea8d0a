// Package core implements the paper's primary contribution: reversible
// runtime neural-network pruning ("back to the future").
//
// A ReversibleModel wraps a trained network together with a library of
// nested pruning levels L0 (dense) … Ln (sparsest) and a compact recovery
// store. Deepening to a sparser level zeroes exactly the weights that level
// additionally prunes; reverting to a denser level writes the displaced
// original values back from the store. Both directions cost O(#changed
// weights) float32 copies — microseconds for the models in this repository —
// instead of the seconds (full checkpoint reload) or minutes-to-hours
// (retraining) that conventional irreversible pruning needs to recover
// accuracy.
//
// Because the levels are nested (each level's pruned set contains the
// previous one's), the store holds every displaced weight exactly once: the
// total store size equals the number of weights pruned at the deepest
// level, independent of how many levels exist. This is the memory-overhead
// result reproduced by experiment T1.
//
// The package is deliberately independent of *why* levels are switched;
// the runtime policy lives in internal/governor. Transitions are
// observable through the TransitionObserver seam (one callback per
// completed level change, with weight count and wall-clock latency) and
// its optional ParamTransitionObserver extension (one callback per
// parameter per level step, for per-layer latency attribution); with no
// observer installed the hot path stays allocation-free.
package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/nn"
	"repro/internal/prune"
)

// Level is one entry of the pruning-level library, with the calibration
// data the runtime governor uses for decision making.
type Level struct {
	// ID is the level index: 0 is dense, higher is sparser.
	ID int
	// Name is "L0", "L1", ….
	Name string
	// Plan holds the masks defining this level; nil for the dense level.
	Plan *prune.Plan
	// Sparsity is the achieved weight sparsity over prunable parameters.
	Sparsity float64
	// Accuracy is the calibrated task accuracy at this level, filled by
	// Calibrate. The governor treats it as this level's quality contract.
	Accuracy float64
	// LatencyMS is the per-inference latency estimate in milliseconds,
	// filled by SetCost.
	LatencyMS float64
	// EnergyMJ is the per-inference energy estimate in millijoules.
	EnergyMJ float64
}

// delta records, for one parameter, the weights additionally pruned when
// deepening into a level, along with their displaced dense values. Values
// are held either exactly (float32) or half-precision compressed
// (bfloat16-style, high 16 bits of the float32 pattern), trading bit-exact
// reversal for half the store memory. Deltas live in the shared
// CheckpointStore; the per-view live-buffer slices they are applied to are
// cached view-side (ReversibleModel.bufs), index-aligned with these.
type delta struct {
	param    string
	indices  []int32
	values   []float32 // exact store (nil when compressed)
	values16 []uint16  // compressed store (nil when exact)
}

// value returns the stored displaced weight j of the delta.
func (d *delta) value(j int) float32 {
	if d.values != nil {
		return d.values[j]
	}
	return math.Float32frombits(uint32(d.values16[j]) << 16)
}

// capture stores the displaced weight j.
func (d *delta) capture(j int, v float32) {
	if d.values != nil {
		d.values[j] = v
		return
	}
	d.values16[j] = uint16(math.Float32bits(v) >> 16)
}

// count returns the number of displaced weights held.
func (d *delta) count() int {
	if d.values != nil {
		return len(d.values)
	}
	return len(d.values16)
}

// bytesPerValue returns the storage cost of one displaced value.
func (d *delta) bytesPerValue() int64 {
	if d.values != nil {
		return 4
	}
	return 2
}

// TransitionObserver receives a notification after every completed level
// transition. Implementations must be cheap and must not call back into the
// model (ApplyLevel is not reentrant); internal/telemetry.Hooks satisfies
// this interface.
type TransitionObserver interface {
	// ObserveTransition reports one transition: the level moved from and
	// to, the number of individual weights written, and the wall-clock time
	// the weight copies took. to == 0 is the safety-critical RestoreFull
	// path.
	ObserveTransition(from, to int, weights int64, elapsed time.Duration)
}

// ParamTransitionObserver is an optional extension of TransitionObserver.
// When the installed observer also implements it, ApplyLevel times each
// delta application individually and reports it here — one call per
// (parameter, level step) pair, so a parameter touched by a multi-level
// jump is reported once per step. The extra cost is two clock reads per
// delta, paid only when the extension is present;
// internal/telemetry.Hooks implements it to feed the per-layer
// rpn_layer_transition_latency_us histograms.
type ParamTransitionObserver interface {
	TransitionObserver
	// ObserveParamTransition reports the weights written into one
	// parameter during one level step of an ApplyLevel(from→to)
	// transition, with the wall-clock time of just those writes.
	ObserveParamTransition(from, to int, param string, weights int64, elapsed time.Duration)
}

// TransitionStats counts runtime level-transition work.
type TransitionStats struct {
	// Transitions is the number of completed ApplyLevel calls that changed
	// level.
	Transitions int
	// Deepen and Revert split Transitions by direction.
	Deepen, Revert int
	// WeightsZeroed and WeightsRestored count individual weight writes.
	WeightsZeroed, WeightsRestored int64
}

// ReversibleModel is a live network viewing a shared CheckpointStore: the
// store holds the sealed dense snapshot, the level library, and every
// level's displaced values exactly once; the view holds the current level,
// transition statistics, and — copy-on-write — only the weight buffers
// transitions have actually written. Build returns the first view of a
// fresh store; CheckpointStore.NewView clones further instances in O(1)
// weight memory. It is not safe for concurrent use; a perception pipeline
// owns one.
type ReversibleModel struct {
	model    *nn.Sequential
	store    *CheckpointStore
	current  int
	stats    TransitionStats
	observer TransitionObserver // nil: observation disabled (zero cost)

	// Copy-on-write state. aliased marks prunable parameters still reading
	// the store's snapshot buffer; bufs caches the live buffer of every
	// delta (index-aligned with store.deltas) so the transition hot loop
	// stays allocation- and lookup-free; privateBytes counts materialized
	// and copied buffers.
	aliased      map[string]bool
	bufs         [][][]float32
	privateBytes int64
	released     bool
}

// BuildOption configures Build.
type BuildOption func(*buildConfig)

type buildConfig struct {
	halfPrecision bool
}

// WithHalfPrecisionStore halves the recovery store's value memory by
// keeping displaced weights as bfloat16 (upper 16 bits of the float32
// pattern). Restoration is then approximate — typically indistinguishable
// in task accuracy, but no longer bit-exact, so VerifyDense is unavailable
// on such models. Experiment T1 quantifies the memory/fidelity tradeoff.
func WithHalfPrecisionStore() BuildOption {
	return func(c *buildConfig) { c.halfPrecision = true }
}

// Build wraps model with the given nested pruning plans. The model must be
// in its dense (unpruned) state: the plans' masks are validated for
// nesting, the displaced weights are captured into the recovery store, and
// the model is left at L0.
//
// plans[i] must nest into plans[i+1] (every weight pruned at level i+1 is
// also pruned at level i+2…); prune.Method implementations produce such
// families via PlanNested.
func Build(model *nn.Sequential, plans []*prune.Plan, opts ...BuildOption) (*ReversibleModel, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	if model == nil {
		return nil, fmt.Errorf("core: Build with nil model")
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: Build with no pruning plans")
	}
	for i := 0; i < len(plans)-1; i++ {
		if !plans[i].Nests(plans[i+1]) {
			return nil, fmt.Errorf("core: plan %d (sparsity %.3f) does not nest into plan %d (sparsity %.3f)",
				i, plans[i].Sparsity, i+1, plans[i+1].Sparsity)
		}
	}
	for i, p := range plans {
		for name, mask := range p.Masks {
			param := model.Param(name)
			if param == nil {
				return nil, fmt.Errorf("core: plan %d references unknown parameter %q", i, name)
			}
			if param.Value.Len() != mask.Len() {
				return nil, fmt.Errorf("core: plan %d mask for %q has %d bits, parameter has %d weights",
					i, name, mask.Len(), param.Value.Len())
			}
		}
	}

	st := &CheckpointStore{hash0: hashPrunable(model), lossy: cfg.halfPrecision}
	st.levels = append(st.levels, &Level{ID: 0, Name: "L0"})
	st.deltas = append(st.deltas, nil) // deltas[0] unused

	prevMasks := map[string]*prune.Mask{}
	for i, p := range plans {
		lvl := &Level{
			ID:       i + 1,
			Name:     fmt.Sprintf("L%d", i+1),
			Plan:     p,
			Sparsity: p.AchievedSparsity(model),
		}
		var ds []delta
		for _, name := range sortedMaskNames(p.Masks) {
			mask := p.Masks[name]
			prev := prevMasks[name]
			if prev == nil {
				prev = prune.NewMask(mask.Len())
			}
			idx := prev.Diff(mask)
			if len(idx) == 0 {
				continue
			}
			d := delta{param: name, indices: make([]int32, len(idx))}
			if cfg.halfPrecision {
				d.values16 = make([]uint16, len(idx))
			} else {
				d.values = make([]float32, len(idx))
			}
			w := model.Param(name).Value.Data()
			for j, k := range idx {
				d.indices[j] = int32(k)
				d.capture(j, w[k])
			}
			ds = append(ds, d)
		}
		st.deltas = append(st.deltas, ds)
		st.levels = append(st.levels, lvl)
		for name, mask := range p.Masks {
			prevMasks[name] = mask
		}
	}
	// Seal the dense snapshot: the first view's live buffers ARE the
	// snapshot (zero copies at Build). Clones alias these copy-on-write;
	// the first view's own aliased flags make it materialize private
	// buffers before its transitions write, exactly like any clone.
	for _, p := range model.Params() {
		st.dense = append(st.dense, denseParam{name: p.Name, data: p.Value.Data(), prunable: p.Prunable})
	}
	st.ckpt = st.fingerprint()
	st.seal()

	rm := &ReversibleModel{model: model, store: st, aliased: map[string]bool{}}
	for _, p := range model.PrunableParams() {
		rm.aliased[p.Name] = true
	}
	rm.rebindAll()
	st.Acquire()
	return rm, nil
}

// fingerprint folds the dense weight hash with every level's delta layout
// (parameter names and pruned indices, in application order) into one
// FNV-64a value. Two models agree exactly at every level iff their dense
// weights and nested plans agree, which is what this fingerprint proxies.
func (s *CheckpointStore) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(s.hash0)
	buf[1] = byte(s.hash0 >> 8)
	buf[2] = byte(s.hash0 >> 16)
	buf[3] = byte(s.hash0 >> 24)
	buf[4] = byte(s.hash0 >> 32)
	buf[5] = byte(s.hash0 >> 40)
	buf[6] = byte(s.hash0 >> 48)
	buf[7] = byte(s.hash0 >> 56)
	h.Write(buf[:])
	for l := 1; l < len(s.deltas); l++ {
		for di := range s.deltas[l] {
			d := &s.deltas[l][di]
			h.Write([]byte(d.param))
			h.Write([]byte{0})
			for _, k := range d.indices {
				buf[0] = byte(k)
				buf[1] = byte(k >> 8)
				buf[2] = byte(k >> 16)
				buf[3] = byte(k >> 24)
				h.Write(buf[:4])
			}
		}
	}
	return h.Sum64()
}

// CheckpointID returns a stable fingerprint of the model's provenance: the
// dense prunable weights folded with the full nested-plan delta layout.
// Instances cloned from the same trained checkpoint with the same plan
// family share a CheckpointID and therefore hold bit-identical weights at
// every prune level. It is the checkpoint store's identity (views of one
// store report the same value, and the store's errors name it). The value
// is computed once when the store is sealed (Build, RefreshStore) and
// shared by every view, so neither reading it nor cloning an instance
// re-hashes the weights.
func (rm *ReversibleModel) CheckpointID() uint64 { return rm.store.ckpt }

// Model returns the live network. Its weights reflect the current level.
func (rm *ReversibleModel) Model() *nn.Sequential { return rm.model }

// NumLevels returns the library size including the dense level L0.
func (rm *ReversibleModel) NumLevels() int { return len(rm.store.levels) }

// Current returns the active level index.
func (rm *ReversibleModel) Current() int { return rm.current }

// Level returns the metadata of level i.
func (rm *ReversibleModel) Level(i int) *Level {
	if i < 0 || i >= len(rm.store.levels) {
		failf("core: level %d out of range [0,%d)", i, len(rm.store.levels))
	}
	return rm.store.levels[i]
}

// Levels returns the level metadata slice (shared across every view of the
// store; do not mutate entries' identity fields).
func (rm *ReversibleModel) Levels() []*Level { return rm.store.levels }

// SetObserver installs (or, with nil, removes) the transition observer.
// The hook is nil-safe by construction: with no observer, ApplyLevel takes
// no clock readings and performs no extra allocations. SetObserver is not
// synchronized with ApplyLevel; install the observer before the model is
// shared (fleet.Instance serializes the callers afterwards).
// An observer that also implements StoreObserver additionally receives
// checksum-verification and residency reports, starting with the view's
// current residency at install time.
func (rm *ReversibleModel) SetObserver(o TransitionObserver) {
	rm.observer = o
	rm.reportResidency()
}

// Stats returns a copy of the accumulated transition statistics.
func (rm *ReversibleModel) Stats() TransitionStats { return rm.stats }

// ResetStats zeroes the transition statistics.
func (rm *ReversibleModel) ResetStats() { rm.stats = TransitionStats{} }

// ApplyLevel transitions the live model to the target level, deepening
// (zeroing newly pruned weights) or reverting (restoring displaced values)
// as needed. The cost is proportional to the number of weights that differ
// between the current and target levels, plus — on revert paths — one
// checksum pass over each crossed level's recovery data: every restore,
// including the emergency ApplyLevel(0), verifies the displaced values it
// is about to write and refuses the transition (weights and level
// untouched, error wrapping ErrStoreCorrupt) if the store is corrupt.
// The first transition that writes a still-aliased parameter materializes
// a private copy-on-write buffer for it. ApplyLevel is a no-op for the
// current level.
func (rm *ReversibleModel) ApplyLevel(target int) error {
	if rm.released {
		return fmt.Errorf("core: ApplyLevel(%d) on a released view", target)
	}
	st := rm.store
	if target < 0 || target >= len(st.levels) {
		return fmt.Errorf("core: level %d out of range [0,%d)", target, len(st.levels))
	}
	if target == rm.current {
		return nil
	}
	so, _ := rm.observer.(StoreObserver)
	if target < rm.current {
		// Verify every level about to be restored before writing anything:
		// a failed transition must leave the weights exactly as they were.
		for l := rm.current; l > target; l-- {
			if err := st.VerifyLevel(l); err != nil {
				if so != nil {
					so.ObserveStoreCheck(false)
				}
				return fmt.Errorf("core: refusing restore %d→%d: %w", rm.current, target, err)
			}
			if so != nil {
				so.ObserveStoreCheck(true)
			}
		}
	}
	from := rm.current
	var t0 time.Time
	var po ParamTransitionObserver
	if rm.observer != nil {
		t0 = now()
		po, _ = rm.observer.(ParamTransitionObserver)
	}
	var moved int64
	if target > rm.current {
		for l := rm.current + 1; l <= target; l++ {
			for di := range st.deltas[l] {
				d := &st.deltas[l][di]
				if rm.aliased[d.param] {
					rm.materialize(d.param)
				}
				var pt time.Time
				if po != nil {
					pt = now()
				}
				w := rm.bufs[l][di]
				for _, k := range d.indices {
					w[k] = 0
				}
				moved += int64(len(d.indices))
				if po != nil {
					po.ObserveParamTransition(from, target, d.param, int64(len(d.indices)), now().Sub(pt))
				}
			}
		}
		rm.stats.WeightsZeroed += moved
		rm.stats.Deepen++
	} else {
		for l := rm.current; l > target; l-- {
			for di := range st.deltas[l] {
				d := &st.deltas[l][di]
				if rm.aliased[d.param] {
					rm.materialize(d.param)
				}
				var pt time.Time
				if po != nil {
					pt = now()
				}
				w := rm.bufs[l][di]
				for j, k := range d.indices {
					w[k] = d.value(j)
				}
				moved += int64(len(d.indices))
				if po != nil {
					po.ObserveParamTransition(from, target, d.param, int64(len(d.indices)), now().Sub(pt))
				}
			}
		}
		rm.stats.WeightsRestored += moved
		rm.stats.Revert++
	}
	rm.stats.Transitions++
	rm.current = target
	if rm.observer != nil {
		rm.observer.ObserveTransition(from, target, moved, now().Sub(t0))
	}
	return nil
}

// RestoreFull is the safety-critical fast path: revert straight to the
// dense level L0.
func (rm *ReversibleModel) RestoreFull() error { return rm.ApplyLevel(0) }

// WeightsChanged returns how many individual weights an ApplyLevel(from→to)
// transition writes — the analytic transition-cost model behind experiment
// T5.
func (rm *ReversibleModel) WeightsChanged(from, to int) int64 {
	st := rm.store
	if from < 0 || from >= len(st.levels) || to < 0 || to >= len(st.levels) {
		failf("core: WeightsChanged(%d,%d) out of range [0,%d)", from, to, len(st.levels))
	}
	if from > to {
		from, to = to, from
	}
	var n int64
	for l := from + 1; l <= to; l++ {
		for _, d := range st.deltas[l] {
			n += int64(len(d.indices))
		}
	}
	return n
}

// StoreBytes returns the memory footprint of the shared recovery store:
// displaced values plus their indices. This is the overhead reversibility
// costs over an ordinary pruned deployment (experiment T1 compares it to
// per-level full checkpoints); with views it is paid once per store, not
// per instance.
func (rm *ReversibleModel) StoreBytes() int64 { return rm.store.StoreBytes() }

// StoredWeights returns the total number of displaced weights held by the
// recovery store.
func (rm *ReversibleModel) StoredWeights() int64 { return rm.store.StoredWeights() }

// Calibrate fills each level's Accuracy by applying it and running eval,
// then returns the model to the level that was active. Calibration runs
// offline, before deployment.
func (rm *ReversibleModel) Calibrate(eval func(m *nn.Sequential) float64) error {
	if eval == nil {
		return fmt.Errorf("core: Calibrate with nil evaluator")
	}
	prev := rm.current
	for i := range rm.store.levels {
		if err := rm.ApplyLevel(i); err != nil {
			return err
		}
		rm.store.levels[i].Accuracy = eval(rm.model)
	}
	return rm.ApplyLevel(prev)
}

// SetCost records the platform-model cost estimates for level i.
func (rm *ReversibleModel) SetCost(i int, latencyMS, energyMJ float64) {
	lvl := rm.Level(i)
	lvl.LatencyMS = latencyMS
	lvl.EnergyMJ = energyMJ
}

// VerifyDense checks, at L0, that the live prunable weights hash to the
// value captured at Build time — the end-to-end reversibility integrity
// check. Calling it at any other level is an error.
func (rm *ReversibleModel) VerifyDense() error {
	if rm.store.lossy {
		return fmt.Errorf("core: VerifyDense unavailable with a half-precision store (restoration is approximate)")
	}
	if rm.current != 0 {
		return fmt.Errorf("core: VerifyDense at level %d; restore to L0 first", rm.current)
	}
	if h := hashPrunable(rm.model); h != rm.store.hash0 {
		return fmt.Errorf("core: dense weight hash mismatch: %#x != %#x (weights modified outside the level library?)", h, rm.store.hash0)
	}
	return nil
}

// CheckInvariants validates the live weights against the current level's
// masks: every pruned position must be exactly zero. It is O(total
// weights) and intended for tests and debugging.
func (rm *ReversibleModel) CheckInvariants() error {
	lvl := rm.store.levels[rm.current]
	if lvl.Plan == nil {
		return nil
	}
	for name, mask := range lvl.Plan.Masks {
		w := rm.model.Param(name).Value.Data()
		for i := range w {
			if !mask.Keep(i) && w[i] != 0 { //lint:allow(floateq) pruned weights are scrubbed to bit-exact zeros
				return fmt.Errorf("core: level %s: %s[%d] = %v, want 0", lvl.Name, name, i, w[i])
			}
		}
	}
	return nil
}

// Scrub re-enforces the current level's masks on the live weights: any
// pruned position that is no longer exactly zero (memory corruption, a
// stray write) is forced back to zero. It returns the number of weights
// repaired. Scrub is the cheap periodic integrity action a deployed system
// runs between the full VerifyDense audits; it cannot repair kept weights
// (those need the dense checkpoint), but at deep levels the majority of
// weight memory is store-covered.
func (rm *ReversibleModel) Scrub() int64 {
	lvl := rm.store.levels[rm.current]
	if lvl.Plan == nil {
		return 0
	}
	var repaired int64
	for name, mask := range lvl.Plan.Masks {
		w := rm.model.Param(name).Value.Data()
		for i := range w {
			if !mask.Keep(i) && w[i] != 0 { //lint:allow(floateq) pruned weights are scrubbed to bit-exact zeros
				w[i] = 0
				repaired++
			}
		}
	}
	return repaired
}

// RefreshStore re-seals the shared store from the view's current dense
// weights: the snapshot is rewritten, displaced values recaptured, and the
// fingerprint and integrity checksums recomputed. Call it after offline
// fine-tuning at L0 invalidates the captured values. The model must be at
// L0, and the view must be the store's sole owner (refcount 1): rewriting
// a snapshot other views alias would change their weights underneath them.
func (rm *ReversibleModel) RefreshStore() error {
	if rm.current != 0 {
		return fmt.Errorf("core: RefreshStore at level %d; restore to L0 first", rm.current)
	}
	st := rm.store
	if n := st.Refs(); n != 1 {
		return fmt.Errorf("core: RefreshStore with %d views attached; the store must be solely owned", n)
	}
	// Fold the view's materialized buffers back into the snapshot and
	// re-alias, so the refreshed store is again shared-from-scratch.
	for i := range st.dense {
		dp := &st.dense[i]
		if !dp.prunable || rm.aliased[dp.name] {
			continue
		}
		p := rm.model.Param(dp.name)
		copy(dp.data, p.Value.Data())
		rm.privateBytes -= int64(len(dp.data)) * 4
		p.Value.SetData(dp.data)
		rm.aliased[dp.name] = true
		rm.rebind(dp.name, dp.data)
	}
	for l := 1; l < len(st.deltas); l++ {
		for di := range st.deltas[l] {
			d := &st.deltas[l][di]
			w := rm.bufs[l][di]
			for j, k := range d.indices {
				d.capture(j, w[k])
			}
		}
	}
	st.hash0 = hashPrunable(rm.model)
	st.ckpt = st.fingerprint()
	st.seal()
	return nil
}

// hashPrunable hashes the prunable weights with FNV-64a, in parameter
// order.
func hashPrunable(model *nn.Sequential) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range model.PrunableParams() {
		for _, v := range p.Value.Data() {
			bits := math.Float32bits(v)
			buf[0] = byte(bits)
			buf[1] = byte(bits >> 8)
			buf[2] = byte(bits >> 16)
			buf[3] = byte(bits >> 24)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func sortedMaskNames(masks map[string]*prune.Mask) []string {
	names := make([]string, 0, len(masks))
	for name := range masks {
		names = append(names, name)
	}
	// Insertion sort: the map is tiny (a handful of parameters per plan).
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
