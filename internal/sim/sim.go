// Package sim implements the driving-scenario substrate: a deterministic
// longitudinal traffic simulator with scripted scenarios, a sensor model
// that renders camera-like patches for the perception pipeline, and the
// ground truth (time-to-collision, obstacle presence, collisions) that the
// safety experiments score against.
//
// The paper's system would be evaluated in a full driving stack; this
// simulator substitutes it with the minimal dynamics that exercise the same
// runtime signals: long benign stretches, sudden criticality spikes
// (cut-ins, pedestrians), and gradual sensor degradation.
package sim

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// ActorType distinguishes traffic participants.
type ActorType int

// Actor types.
const (
	Vehicle ActorType = iota
	Pedestrian
)

// String names the actor type.
func (t ActorType) String() string {
	if t == Pedestrian {
		return "pedestrian"
	}
	return "vehicle"
}

// Actor is one traffic participant in the 1-D multi-lane world.
type Actor struct {
	// ID is unique within a world.
	ID int
	// Type is vehicle or pedestrian.
	Type ActorType
	// Lane is the lane index; the ego vehicle drives in lane 0.
	Lane int
	// Pos is the longitudinal position in meters (same axis as the ego).
	Pos float64
	// Speed is the longitudinal speed in m/s.
	Speed float64
}

// Ego is the controlled vehicle.
type Ego struct {
	// Pos is the longitudinal position in meters.
	Pos float64
	// Speed is the current speed in m/s.
	Speed float64
	// Cruise is the target speed the ego accelerates back to when not
	// braking.
	Cruise float64
}

// Event is a scripted scenario occurrence applied when the world reaches
// Tick.
type Event struct {
	// Tick is the 0-based tick at which Do runs (before dynamics).
	Tick int
	// Do mutates the world.
	Do func(w *World)
}

// Scenario scripts one evaluation run.
type Scenario struct {
	// Name identifies the scenario in tables.
	Name string
	// Ticks is the run length.
	Ticks int
	// Dt is the simulated seconds per tick.
	Dt float64
	// CruiseSpeed is the ego's target speed in m/s.
	CruiseSpeed float64
	// BaseNoise is the sensor's nominal Gaussian noise sigma.
	BaseNoise float64
	// SensorRange is the detection range in meters.
	SensorRange float64
	// Events are applied in tick order.
	Events []Event
}

// Validate checks scenario parameters.
func (s Scenario) Validate() error {
	switch {
	case s.Ticks <= 0:
		return fmt.Errorf("sim: scenario %q has %d ticks", s.Name, s.Ticks)
	case s.Dt <= 0:
		return fmt.Errorf("sim: scenario %q has dt %v", s.Name, s.Dt)
	case s.CruiseSpeed <= 0:
		return fmt.Errorf("sim: scenario %q has cruise speed %v", s.Name, s.CruiseSpeed)
	case s.SensorRange <= 0:
		return fmt.Errorf("sim: scenario %q has sensor range %v", s.Name, s.SensorRange)
	}
	return nil
}

// Vehicle dynamics constants: comfortable acceleration and emergency
// braking, embedded-AV-typical.
const (
	accelMS2 = 2.0
	brakeMS2 = 6.5
	// collisionGap is the bumper-to-bumper distance treated as contact.
	collisionGap = 1.0
)

// World is the live state of one scenario run. It is not safe for
// concurrent use.
type World struct {
	scenario Scenario
	rng      *tensor.RNG
	tick     int
	ego      Ego
	actors   []*Actor
	braking  bool
	collided bool
	noise    float64
	contrast float64
	nextID   int
	frameRNG *tensor.RNG
}

// NewWorld starts a scenario with the given seed. The seed drives both
// traffic randomness and sensor noise, so identical (scenario, seed) pairs
// produce identical runs.
func NewWorld(sc Scenario, seed int64) (*World, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	return &World{
		scenario: sc,
		rng:      rng,
		frameRNG: rng.Fork(),
		ego:      Ego{Pos: 0, Speed: sc.CruiseSpeed, Cruise: sc.CruiseSpeed},
		noise:    sc.BaseNoise,
		contrast: 1,
	}, nil
}

// Tick returns the current tick index.
func (w *World) Tick() int { return w.tick }

// Done reports whether the scenario has run out of ticks.
func (w *World) Done() bool { return w.tick >= w.scenario.Ticks }

// Ego returns the ego state.
func (w *World) Ego() Ego { return w.ego }

// Actors returns the live actors (shared slice; do not mutate).
func (w *World) Actors() []*Actor { return w.actors }

// Collided reports whether a collision has occurred.
func (w *World) Collided() bool { return w.collided }

// Noise returns the current sensor noise sigma.
func (w *World) Noise() float64 { return w.noise }

// SetNoise overrides the sensor noise (used by degradation events).
func (w *World) SetNoise(sigma float64) { w.noise = sigma }

// Contrast returns the current obstacle contrast factor (1 = clear).
func (w *World) Contrast() float64 { return w.contrast }

// SetContrast overrides the obstacle contrast; fog and low light reduce it
// below 1, making obstacles blend into the road.
func (w *World) SetContrast(c float64) { w.contrast = c }

// SetBraking engages or releases emergency braking; the perception-driven
// controller calls this every tick.
func (w *World) SetBraking(b bool) { w.braking = b }

// SpawnActor adds an actor at the given gap ahead of the ego.
func (w *World) SpawnActor(t ActorType, lane int, gapAhead, speed float64) *Actor {
	a := &Actor{ID: w.nextID, Type: t, Lane: lane, Pos: w.ego.Pos + gapAhead, Speed: speed}
	w.nextID++
	w.actors = append(w.actors, a)
	return a
}

// Step advances the world one tick: scripted events fire, then dynamics
// integrate, then collisions are detected and out-of-scope actors are
// retired.
func (w *World) Step() {
	if w.Done() {
		return
	}
	for _, e := range w.scenario.Events {
		if e.Tick == w.tick && e.Do != nil {
			e.Do(w)
		}
	}
	dt := w.scenario.Dt

	// Ego dynamics.
	if w.collided {
		w.ego.Speed = 0
	} else if w.braking {
		w.ego.Speed -= brakeMS2 * dt
		if w.ego.Speed < 0 {
			w.ego.Speed = 0
		}
	} else if w.ego.Speed < w.ego.Cruise {
		w.ego.Speed += accelMS2 * dt
		if w.ego.Speed > w.ego.Cruise {
			w.ego.Speed = w.ego.Cruise
		}
	}
	w.ego.Pos += w.ego.Speed * dt

	// Actor dynamics and retirement.
	alive := w.actors[:0]
	for _, a := range w.actors {
		a.Pos += a.Speed * dt
		if a.Pos > w.ego.Pos-60 { // keep actors up to 60 m behind
			alive = append(alive, a)
		}
	}
	w.actors = alive

	// Collision detection in the ego lane.
	if !w.collided {
		for _, a := range w.actors {
			if a.Lane != 0 {
				continue
			}
			gap := a.Pos - w.ego.Pos
			if gap >= 0 && gap <= collisionGap && w.ego.Speed > a.Speed {
				w.collided = true
				w.ego.Speed = 0
				break
			}
		}
	}
	w.tick++
}

// LeadActor returns the nearest actor ahead of the ego in lane 0 and its
// gap, or (nil, +Inf).
func (w *World) LeadActor() (*Actor, float64) {
	var lead *Actor
	gap := math.Inf(1)
	for _, a := range w.actors {
		if a.Lane != 0 {
			continue
		}
		g := a.Pos - w.ego.Pos
		if g >= 0 && g < gap {
			gap = g
			lead = a
		}
	}
	return lead, gap
}

// TTC returns the time-to-collision with the lead actor, +Inf when no actor
// is ahead or the gap is opening.
func (w *World) TTC() float64 {
	lead, gap := w.LeadActor()
	if lead == nil {
		return math.Inf(1)
	}
	closing := w.ego.Speed - lead.Speed
	if closing <= 0 {
		return math.Inf(1)
	}
	return gap / closing
}

// Complexity returns the scene-complexity signal in [0,1]: actor density
// within 100 m of the ego, saturating at 8 actors.
func (w *World) Complexity() float64 {
	n := 0
	for _, a := range w.actors {
		if math.Abs(a.Pos-w.ego.Pos) <= 100 {
			n++
		}
	}
	c := float64(n) / 8
	if c > 1 {
		c = 1
	}
	return c
}

// ObstacleInRange reports whether the lead actor is within sensor range —
// the perception ground truth for the current tick.
func (w *World) ObstacleInRange() bool {
	lead, gap := w.LeadActor()
	return lead != nil && gap <= w.scenario.SensorRange
}

// Frame renders the sensor patch for the current tick as a [1, size, size]
// tensor, together with the ground-truth obstacle label. Closer obstacles
// render larger (the difficulty model: a distant pedestrian is a small
// blob); current sensor noise is applied.
func (w *World) Frame(size int) (*tensor.Tensor, bool) {
	truth := w.ObstacleInRange()
	radius := 0.0
	if truth {
		_, gap := w.LeadActor()
		// Map gap ∈ [0, range] to radius ∈ [4.5, 2]: near → large. The
		// range matches the obstacle training distribution.
		frac := gap / w.scenario.SensorRange
		radius = 4.5 - 2.5*frac
		if radius < 2 {
			radius = 2
		}
	}
	pix := dataset.RenderObstaclePatchContrast(truth, size, radius, w.noise, w.contrast, w.frameRNG)
	return tensor.FromSlice(pix, 1, size, size), truth
}
