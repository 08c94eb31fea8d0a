// Package fleet scales the single-model perception stack to many named
// model instances sharing one platform. Each Instance owns its
// perception.Pipeline + core.ReversibleModel + governor.Governor behind a
// per-instance lock, so N vehicles run their control loops concurrently
// with no cross-instance contention. A Dispatcher fans incoming frames
// across instances on worker goroutines, each frame served by its own
// instance's Detect, and a BudgetGovernor retargets prune levels
// fleet-wide to hold an aggregate energy/latency budget.
//
// Telemetry: each instance's observers are wired externally (typically a
// telemetry.Hooks with a model="<name>" base label via SetObserver /
// SetModelObserver / governor.WithObserver), so every per-instance series
// on /metrics carries the instance name; the BudgetGovernor reports
// fleet-aggregate series through the RebalanceObserver seam.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Fleet is a registry of named model instances. All methods are safe for
// concurrent use; the registry lock is never held while calling into an
// instance, so a slow detection cannot stall registry reads.
type Fleet struct {
	mu        sync.Mutex
	instances map[string]*Instance
}

// New constructs an empty fleet.
func New() *Fleet {
	return &Fleet{instances: make(map[string]*Instance)}
}

// Add registers an instance under its name. Duplicate names are an error —
// the name keys every per-model telemetry series.
func (f *Fleet) Add(inst *Instance) error {
	if inst == nil {
		return fmt.Errorf("fleet: nil instance")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.instances[inst.name]; ok {
		return fmt.Errorf("fleet: duplicate instance %q", inst.name)
	}
	f.instances[inst.name] = inst
	return nil
}

// Get returns the instance registered under name.
func (f *Fleet) Get(name string) (*Instance, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	inst, ok := f.instances[name]
	return inst, ok
}

// Names returns the registered instance names, sorted.
func (f *Fleet) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.instances))
	for n := range f.instances {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Instances returns the registered instances sorted by name — the
// deterministic iteration order the budget governor's tie-breaking and
// every report table rely on.
func (f *Fleet) Instances() []*Instance {
	f.mu.Lock()
	defer f.mu.Unlock()
	insts := make([]*Instance, 0, len(f.instances))
	for _, inst := range f.instances {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i].name < insts[j].name })
	return insts
}

// Size returns the number of registered instances.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.instances)
}

// Release detaches every instance's model view from its checkpoint store,
// in name order. Call once at fleet teardown, after dispatchers and
// budget governors have stopped; released instances refuse transitions.
// All release errors are joined so one double-release cannot mask a leak
// elsewhere in the fleet.
func (f *Fleet) Release() error {
	var errs []error
	for _, inst := range f.Instances() {
		if err := inst.Release(); err != nil {
			errs = append(errs, fmt.Errorf("fleet: release %s: %w", inst.name, err))
		}
	}
	return errors.Join(errs...)
}
