package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/health"
	"repro/internal/perception"
	"repro/internal/tensor"
)

// ErrClosed is returned by Submit after Close has been called.
var ErrClosed = errors.New("fleet: dispatcher closed")

// ErrQuarantined is the Result.Err of a frame rejected because its
// instance is quarantined by the health monitor.
var ErrQuarantined = errors.New("fleet: instance quarantined")

// Result is one dispatched frame's perception output.
type Result struct {
	// Model is the instance that classified the frame.
	Model string
	// Seq is the dispatcher-wide submission sequence number, for
	// correlating results (which arrive in completion order) back to
	// submissions.
	Seq int64
	// Detection is the classification (zero when Err is set).
	Detection perception.Detection
	// Err reports a failed frame: ErrQuarantined for a fenced instance, a
	// detection error (dropped frame, geometry mismatch), or a recovered
	// panic from the instance's detection path — the worker survives all
	// of them.
	Err error
	// Health is the instance's state after this frame was observed
	// (Healthy when no monitor is installed).
	Health health.State
	// Tag is the opaque routing handle the submitter attached through
	// SubmitTagged (nil for plain Submit). The dispatcher carries it
	// untouched through every outcome — served, quarantine reject,
	// recovered panic — so a caller multiplexing many upstream sources
	// (the ingest front end routing results back to network connections)
	// never needs a seq→source map.
	Tag any
}

// job is one queued frame.
type job struct {
	inst  *Instance
	name  string
	seq   int64
	frame *tensor.Tensor
	tag   any
}

// Dispatcher fans frames out across fleet instances on a fixed pool of
// worker goroutines. Frames for different instances run concurrently;
// frames for the same instance serialize on that instance's lock. Results
// arrive on Results in completion order.
//
// Lifecycle: Submit after Close returns ErrClosed. Close drains the
// queue, waits for in-flight work, then closes Results — so ranging over
// Results after Close terminates.
type Dispatcher struct {
	fleet   *Fleet
	monitor *health.Monitor
	jobs    chan job
	results chan Result
	wg      sync.WaitGroup
	once    sync.Once
	seq     atomic.Int64

	// closeMu orders Submit's closed-check-then-send against Close's
	// close(jobs): senders hold the read side across the send, so the
	// channel can only close once no Submit is mid-flight.
	closeMu sync.RWMutex
	closed  bool
}

// DispatchOption configures a Dispatcher.
type DispatchOption func(*Dispatcher)

// WithHealthMonitor puts every dispatched frame under the watchdog: frames
// for quarantined instances are rejected with ErrQuarantined (counting
// toward the quarantine dwell), every served frame is observed (NaN,
// deadline, error), and a panic from the detection path is recovered and
// reported as a ReasonPanic fault. Instances must be registered with the
// monitor separately.
func WithHealthMonitor(m *health.Monitor) DispatchOption {
	return func(d *Dispatcher) { d.monitor = m }
}

// NewDispatcher starts workers goroutines over the fleet. queue bounds the
// number of submitted-but-unstarted frames (Submit blocks when full);
// Results has the same capacity, so a caller that stops draining results
// eventually backpressures Submit.
func NewDispatcher(f *Fleet, workers, queue int, opts ...DispatchOption) (*Dispatcher, error) {
	if f == nil {
		return nil, fmt.Errorf("fleet: nil fleet")
	}
	if workers <= 0 {
		return nil, fmt.Errorf("fleet: %d workers", workers)
	}
	if queue < 0 {
		return nil, fmt.Errorf("fleet: negative queue %d", queue)
	}
	d := &Dispatcher{
		fleet:   f,
		jobs:    make(chan job, queue),
		results: make(chan Result, queue),
	}
	for _, o := range opts {
		o(d)
	}
	for w := 0; w < workers; w++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// worker serves queued jobs until Close closes the queue.
func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for j := range d.jobs {
		d.results <- d.process(j)
	}
}

// process serves one frame: health gate, detection, observation. A panic
// anywhere in the detection path is recovered into the Result — one bad
// frame must not take a worker (and with it the whole pool) down.
func (d *Dispatcher) process(j job) (res Result) {
	res = Result{Model: j.name, Seq: j.seq, Tag: j.tag}
	if d.monitor != nil && !d.monitor.Gate(j.name) {
		res.Err = ErrQuarantined
		res.Health = d.monitor.State(j.name)
		return res
	}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("fleet: instance %q: recovered panic: %v", j.name, r)
			if d.monitor != nil {
				res.Health = d.monitor.ObserveFault(j.name, health.ReasonPanic)
			}
		}
	}()
	start := now()
	det, err := j.inst.Detect(j.frame)
	res.Detection, res.Err = det, err
	if d.monitor != nil {
		res.Health, _ = d.monitor.Observe(j.name, det.Confidence, det.Uncertainty, now().Sub(start), err)
	}
	return res
}

// Submit queues one frame for the named instance and returns its sequence
// number. The frame must stay untouched until its Result arrives (workers
// read it asynchronously). Blocks while the queue is full; returns
// ErrClosed after Close.
func (d *Dispatcher) Submit(model string, frame *tensor.Tensor) (int64, error) {
	return d.SubmitTagged(model, frame, nil)
}

// SubmitTagged is Submit with an opaque routing tag: the frame's Result —
// whatever its outcome — carries tag back verbatim in Result.Tag.
// Submitters that need to correlate results to their origin
// (per-connection routing in the ingest front end) attach the origin here
// instead of maintaining a seq-indexed map, which would race the result
// arriving before the map entry is written.
func (d *Dispatcher) SubmitTagged(model string, frame *tensor.Tensor, tag any) (int64, error) {
	inst, ok := d.fleet.Get(model)
	if !ok {
		return 0, fmt.Errorf("fleet: unknown instance %q", model)
	}
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return 0, ErrClosed
	}
	seq := d.seq.Add(1) - 1
	d.jobs <- job{inst: inst, name: model, seq: seq, frame: frame, tag: tag}
	return seq, nil
}

// Results returns the completion stream. It is closed by Close after all
// in-flight frames finish.
func (d *Dispatcher) Results() <-chan Result { return d.results }

// Close stops accepting work, waits for queued and in-flight frames to
// finish, and closes Results. Idempotent. A caller must keep draining
// Results (or have capacity left) for Close to return.
func (d *Dispatcher) Close() {
	d.once.Do(func() {
		d.closeMu.Lock()
		d.closed = true
		d.closeMu.Unlock()
		close(d.jobs)
		d.wg.Wait()
		close(d.results)
	})
}
