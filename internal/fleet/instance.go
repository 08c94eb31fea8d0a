package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/perception"
	"repro/internal/safety"
	"repro/internal/tensor"
)

// Instance is one named model in the fleet: a perception pipeline and its
// reversible model behind a per-instance mutex, with an optional governor
// attached. It satisfies both perception.Stack (so perception.RunStack can
// drive a closed loop over it) and governor.Target (so its governor — and
// the fleet BudgetGovernor — execute transitions through the same lock the
// detection path takes; a frame never observes a half-applied level).
//
// Locking: mu guards the pipeline and the model weights, and is held only
// for the duration of one forward pass or one transition — never across a
// governor tick, so the policy decision of one instance cannot stall
// another instance's frames. tickMu serializes governor ticks (the
// governor's own counters are not internally synchronized).
type Instance struct {
	name string
	mu   sync.Mutex
	pipe *perception.Pipeline
	rm   *core.ReversibleModel
	// demand is the level most recently requested through ApplyLevel (the
	// instance's own governor or operator). The BudgetGovernor rebalances
	// starting from demands, so a budget squeeze relaxes automatically when
	// demand rises. Guarded by mu.
	demand int
	// obs is the per-frame observer behind an atomic pointer, so installing
	// it mid-flight is safe; a nil load means no observation and no clock
	// reads.
	obs atomic.Pointer[perception.FrameObserver]
	// inj, when non-nil, is the chaos harness: its frame point runs before
	// every forward pass and its transition point after every completed
	// level change. Guarded by mu.
	inj *fault.Injector

	tickMu sync.Mutex
	gov    *governor.Governor
}

// NewInstance wraps a pipeline and its reversible model under a name. The
// pipeline must have been built over rm.Model().
func NewInstance(name string, pipe *perception.Pipeline, rm *core.ReversibleModel) (*Instance, error) {
	if name == "" {
		return nil, fmt.Errorf("fleet: empty instance name")
	}
	if pipe == nil {
		return nil, fmt.Errorf("fleet: instance %q: nil pipeline", name)
	}
	if rm == nil {
		return nil, fmt.Errorf("fleet: instance %q: nil reversible model", name)
	}
	return &Instance{name: name, pipe: pipe, rm: rm}, nil
}

// Name returns the instance name (the model label on its telemetry series).
func (i *Instance) Name() string { return i.name }

// AttachGovernor builds a governor over this instance (the instance itself
// is the governor.Target, so transitions the governor executes serialize
// against detection). Call at wiring time, before the instance is shared
// across goroutines; Tick is a no-op until a governor is attached.
func (i *Instance) AttachGovernor(policy governor.Policy, contract safety.Contract, opts ...governor.Option) error {
	gov, err := governor.New(i, policy, contract, opts...)
	if err != nil {
		return fmt.Errorf("fleet: instance %q: %w", i.name, err)
	}
	i.tickMu.Lock()
	defer i.tickMu.Unlock()
	i.gov = gov
	return nil
}

// Governor returns the attached governor (nil before AttachGovernor).
func (i *Instance) Governor() *governor.Governor {
	i.tickMu.Lock()
	defer i.tickMu.Unlock()
	return i.gov
}

// SetObserver installs (or, with nil, removes) a per-frame observer —
// typically a telemetry.Hooks carrying this instance's model label. Safe
// to call while detections are in flight.
func (i *Instance) SetObserver(o perception.FrameObserver) {
	if o == nil {
		i.obs.Store(nil)
		return
	}
	i.obs.Store(&o)
}

// SetModelObserver installs a transition observer on the underlying
// reversible model, under the instance lock so it cannot interleave with a
// transition in flight.
func (i *Instance) SetModelObserver(o core.TransitionObserver) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rm.SetObserver(o)
}

// SetFaultInjector arms (or, with nil, removes) the chaos harness on this
// instance. Call at wiring time, before frames flow. Arming privatizes the
// model's copy-on-write weight buffers: injected damage (NaN poison, bit
// flips) must land in this instance alone, never in a checkpoint-store
// snapshot siblings alias.
func (i *Instance) SetFaultInjector(inj *fault.Injector) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if inj != nil {
		i.rm.Privatize()
	}
	i.inj = inj
}

// Release detaches the instance's model view from its checkpoint store.
// Call at teardown, after the dispatcher has stopped routing frames here;
// a released instance refuses transitions.
func (i *Instance) Release() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rm.Release()
}

// Detect classifies one frame under the instance lock. The observed
// latency includes lock wait — a transition in flight delays frames, and
// that stall is exactly what the per-model frame histogram should show.
// An armed fault injector's frame point runs first: a dropped frame
// returns an error without touching the pipeline, a garbled frame
// replaces the input, and a slow-infer stall delays the pass.
func (i *Instance) Detect(frame *tensor.Tensor) (perception.Detection, error) {
	var obs perception.FrameObserver
	if p := i.obs.Load(); p != nil {
		obs = *p
	}
	var t0 time.Time
	if obs != nil {
		t0 = now()
	}
	defer func() {
		if obs != nil {
			obs.ObserveFrame(now().Sub(t0))
		}
	}()
	i.mu.Lock()
	inj := i.inj
	i.mu.Unlock()
	if inj != nil {
		replacement, drop, stall := inj.OnFrame(i.name, frame)
		if stall > 0 {
			sleep(stall)
		}
		if drop {
			return perception.Detection{}, fmt.Errorf("fleet: instance %q: frame lost (injected drop)", i.name)
		}
		if replacement != nil {
			frame = replacement
		}
	}
	i.mu.Lock()
	d, err := i.pipe.Detect(frame)
	i.mu.Unlock()
	return d, err
}

// Tick runs one governor iteration (perception.Stack seam). Without an
// attached governor it returns a zero Decision.
func (i *Instance) Tick(tick int, a safety.Assessment) (governor.Decision, error) {
	i.tickMu.Lock()
	defer i.tickMu.Unlock()
	if i.gov == nil {
		return governor.Decision{}, nil
	}
	return i.gov.Tick(tick, a)
}

// Switches returns the number of level changes the attached governor has
// executed (perception.Stack seam; 0 without a governor).
func (i *Instance) Switches() int {
	i.tickMu.Lock()
	defer i.tickMu.Unlock()
	if i.gov == nil {
		return 0
	}
	return i.gov.Switches()
}

// ApplyLevel transitions the model under the lock and records the level as
// this instance's demand — what the instance itself wants to run at, which
// the fleet BudgetGovernor uses as the starting point of every rebalance.
// The instance's governor executes through this method (governor.Target),
// so a governor tick after a budget retarget restores the instance's own
// preference.
func (i *Instance) ApplyLevel(target int) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if err := i.applyLocked(target); err != nil {
		return err
	}
	i.demand = target
	return nil
}

// retarget transitions the model without touching demand — the
// BudgetGovernor's apply path, distinguishing "the budget squeezed you
// deeper" from "you asked for this level".
func (i *Instance) retarget(target int) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.applyLocked(target)
}

// applyLocked transitions the model and, on an actual level change, runs
// the injector's transition fault point — under the lock, so a stuck-
// transition stall wedges exactly where a real one would (frames queue on
// mu) and NaN poison lands before any frame sees the new level. Caller
// holds i.mu.
func (i *Instance) applyLocked(target int) error {
	prev := i.rm.Current()
	if err := i.rm.ApplyLevel(target); err != nil {
		return err
	}
	if cur := i.rm.Current(); i.inj != nil && cur != prev {
		if stall := i.inj.OnTransition(i.name, cur, i.rm.Model()); stall > 0 {
			sleep(stall)
		}
		// The store fault point runs after the transition settles: armed
		// store-corrupt specs flip bits in the recovery store, silently —
		// the next checksum-verified restore is what must refuse to run.
		i.inj.OnStore(i.name, i.rm)
	}
	return nil
}

// Demand returns the level most recently requested through ApplyLevel.
func (i *Instance) Demand() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.demand
}

// RestoreFull reverts to dense under the lock (and records the demand).
func (i *Instance) RestoreFull() error { return i.ApplyLevel(0) }

// Current returns the active level under the lock.
func (i *Instance) Current() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rm.Current()
}

// NumLevels returns the size of the level library.
func (i *Instance) NumLevels() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rm.NumLevels()
}

// Level returns level idx's calibrated metadata.
func (i *Instance) Level(idx int) *core.Level {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rm.Level(idx)
}

// Levels returns the calibrated level library. The slice and its metadata
// are immutable after calibration; callers must not mutate them.
func (i *Instance) Levels() []*core.Level {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rm.Levels()
}

// Scrub repairs pruned-position corruption under the lock.
func (i *Instance) Scrub() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rm.Scrub()
}
