package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/safety"
	"repro/internal/tensor"
)

// The types below are the benchmark's own implementations of the program's
// public seams. They are installed only in traced runs, so an untraced run
// wires the stack exactly as simdrive -serve does.

// ingestTap forwards the front end's observations to the telemetry hooks
// (as simdrive does) and records spans and counts.
type ingestTap struct {
	ingest.Observer
	tr *tracer
	// depth holds the latest queue depth per class; their sum is the
	// queue's total depth.
	depth [safety.NumClasses]atomic.Int64
}

func (o *ingestTap) ObserveIngestAccepted(class string) {
	o.Observer.ObserveIngestAccepted(class)
	o.tr.count("ingest.accepted", 1)
}

func (o *ingestTap) ObserveIngestShed(class string) {
	o.Observer.ObserveIngestShed(class)
	o.tr.count("ingest.shed", 1)
	if class == safety.Emergency.String() {
		o.tr.count("ingest.shed_emergency", 1)
	}
}

func (o *ingestTap) ObserveIngestBackpressure() {
	o.Observer.ObserveIngestBackpressure()
	o.tr.count("ingest.backpressure", 1)
}

func (o *ingestTap) SetIngestQueueDepth(class string, depth int) {
	o.Observer.SetIngestQueueDepth(class, depth)
	for c := safety.Criticality(0); c < safety.NumClasses; c++ {
		if c.String() == class {
			o.depth[c].Store(int64(depth))
		}
	}
	var total int64
	for c := range o.depth {
		total += o.depth[c].Load()
	}
	o.tr.maxCount("ingest.queue_depth_max", total)
}

func (o *ingestTap) ObserveIngestEnqueue(elapsed time.Duration) {
	o.Observer.ObserveIngestEnqueue(elapsed)
	o.tr.observed("ingest.enqueue", elapsed)
}

func (o *ingestTap) ObserveIngestFrameLatency(elapsed time.Duration) {
	o.Observer.ObserveIngestFrameLatency(elapsed)
	o.tr.observed("ingest.frame", elapsed)
}

// frameTap is an instance's perception.FrameObserver: Instance.Detect's
// duration, instance-lock wait included.
type frameTap struct{ tr *tracer }

func (o frameTap) ObserveFrame(elapsed time.Duration) { o.tr.observed("instance.detect", elapsed) }

// transitionTap is a model's core.TransitionObserver.
type transitionTap struct{ tr *tracer }

func (o transitionTap) ObserveTransition(_, _ int, weights int64, elapsed time.Duration) {
	o.tr.observed("core.transition", elapsed)
	o.tr.count("core.transitions", 1)
	o.tr.count("core.weights", weights)
}

// tracedBackend wraps the dispatcher as the front end's ingest.Backend: it
// times each SubmitTagged call (how long the pump blocks on the
// dispatcher's queue) and each frame's residence from submit to result.
// The front end's tag is carried inside the benchmark's own tag.
type tracedBackend struct {
	d    *fleet.Dispatcher
	tr   *tracer
	out  chan fleet.Result
	stop chan struct{}
	wg   sync.WaitGroup
}

type tracedTag struct {
	inner     any
	submitted time.Time
}

func newTracedBackend(d *fleet.Dispatcher, tr *tracer, queue int) *tracedBackend {
	// out matches the dispatcher's own results buffer, so the wrapper adds
	// no capacity of its own to the path.
	b := &tracedBackend{d: d, tr: tr, out: make(chan fleet.Result, queue), stop: make(chan struct{})}
	b.wg.Add(1)
	go b.forward()
	return b
}

func (b *tracedBackend) SubmitTagged(model string, frame *tensor.Tensor, tag any) (int64, error) {
	t0 := time.Now()
	seq, err := b.d.SubmitTagged(model, frame, &tracedTag{inner: tag, submitted: t0})
	b.tr.record(0, "dispatch.submit_block", t0, time.Now(), 0, -1)
	return seq, err
}

func (b *tracedBackend) Results() <-chan fleet.Result { return b.out }

// forward relays results until the dispatcher closes its stream. After
// close(stop) nobody reads out any more; results are then discarded so the
// dispatcher's workers never block on a full stream during Close.
func (b *tracedBackend) forward() {
	defer b.wg.Done()
	defer close(b.out)
	for res := range b.d.Results() {
		if tt, ok := res.Tag.(*tracedTag); ok {
			b.tr.record(0, "dispatch.residence", tt.submitted, time.Now(), 0, -1)
			res.Tag = tt.inner
		}
		select {
		case b.out <- res:
		case <-b.stop:
		}
	}
}

// close stops relaying; call after the front end has shut down and
// before the dispatcher closes. wait joins the relay after that.
func (b *tracedBackend) close() { close(b.stop) }
func (b *tracedBackend) wait()  { b.wg.Wait() }
