package main

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/perception"
	"repro/internal/safety"
	"repro/internal/tensor"
)

// The load generator runs in a child process of the benchmark, so its
// wake-ups are scheduled by the kernel beside the server rather than by
// the server's own Go scheduler, where a saturated stack delayed them by
// milliseconds. The parent sends a gatewayJob on the child's stdin and
// reads a gatewayResult from its stdout.

// gatewayFlag, as the only argument, runs the binary as the generator.
const gatewayFlag = "-gateway"

// gatewayJob is everything the generator needs; it derives its frames and
// schedules from Seed.
type gatewayJob struct {
	Addr    string
	Seed    int64
	Rate    float64
	Conns   int
	StartNS int64 // wall clock of the schedule's time zero, Unix ns
	Warmup  time.Duration
	Window  time.Duration
	Drain   time.Duration
	// Refs is the oracle: every pool frame's detection at every level.
	Refs   [][]perception.Detection
	Traced bool
}

// gatewayResult is the generator's account of the measurement window.
type gatewayResult struct {
	Tally tally
	// SendUS are SendFrame call times; Spans a sample of frame and send
	// spans, relative to BaseNS.
	SendUS samples
	Spans  []span
	BaseNS int64
}

// tally counts the frames due in the measurement window.
type tally struct {
	Due                    int64
	Counts                 [numOutcomes]int64
	EmergencyDue           int64
	Goodput, EmergencyGood int64
	// LatMS and EmergencyMS are OK frames' due → RESULT times by slice of
	// their due time.
	LatMS, EmergencyMS sliced
	LateUS             samples // how late the sender ran, per due frame
	Violations         []string
}

// failed counts operations that failed, as opposed to frames the system
// chose not to serve (shed, skipped at the source).
func (t *tally) failed() int64 {
	return t.Counts[outError] + t.Counts[outQuarantined] + t.Counts[outRefused] + t.Counts[outLost]
}

// runGatewayProcess starts the generator, hands it the job and waits for
// its result and its exit.
func runGatewayProcess(job *gatewayJob) (*gatewayResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	limit := time.Until(time.Unix(0, job.StartNS)) + job.Warmup + job.Window + job.Drain + time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, gatewayFlag)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start generator: %w", err)
	}
	encErr := gob.NewEncoder(in).Encode(job)
	if cerr := in.Close(); encErr == nil {
		encErr = cerr
	}
	var res gatewayResult
	decErr := gob.NewDecoder(out).Decode(&res)
	if decErr != nil {
		_, _ = io.Copy(io.Discard, out) // let the child finish writing before Wait closes the pipe
	}
	waitErr := cmd.Wait()
	switch {
	case encErr != nil:
		return nil, fmt.Errorf("send job to generator: %w", encErr)
	case waitErr != nil:
		return nil, fmt.Errorf("generator: %w", waitErr)
	case decErr != nil:
		return nil, fmt.Errorf("read generator result: %w", decErr)
	}
	return &res, nil
}

// gatewayMain is the generator process: read the job, drive the
// connections, write the result.
func gatewayMain(r io.Reader, w io.Writer) error {
	var job gatewayJob
	if err := gob.NewDecoder(r).Decode(&job); err != nil {
		return fmt.Errorf("read job: %w", err)
	}
	pool := framePool(job.Seed)
	horizon := job.Warmup + job.Window
	scheds := make([][]arrival, job.Conns)
	var total int
	for c := range scheds {
		scheds[c] = schedule(job.Seed, c, job.Rate/float64(job.Conns), horizon)
		total += len(scheds[c])
	}
	start := time.Unix(0, job.StartNS)
	var tr *tracer
	if job.Traced {
		tr = newTracer()
		tr.window(start.Add(job.Warmup), start.Add(horizon))
	}
	// Sample every k-th frame so the kept spans cover the whole window.
	every := uint64(total/spansPerName + 1)
	gws, err := runGateways(job.Addr, scheds, pool, job.Refs, tr, every, start, job.Drain)
	if err != nil {
		return err
	}
	res := gatewayResult{Tally: account(gws, job.Warmup, horizon)}
	if tr != nil {
		res.Spans, res.BaseNS = tr.spans, tr.base.UnixNano()
		for _, g := range gws {
			res.SendUS = append(res.SendUS, g.sendUS...)
		}
	}
	if err := gob.NewEncoder(w).Encode(&res); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// gateway is one RFR1 connection of the load generator: a sender that
// follows the schedule and a reader that accounts for every RESULT.
type gateway struct {
	idx   int
	cl    *ingest.Client
	sched []arrival
	pool  []*tensor.Tensor
	refs  [][]perception.Detection
	tr    *tracer
	every uint64 // span sampling: frames whose seq is a multiple

	inFlight atomic.Int64
	sendDone atomic.Bool

	// Sender-owned.
	sent    []bool
	late    []time.Duration
	sendUS  samples
	sendErr error
	// Reader-owned.
	got        []bool
	status     []outcome
	lat        []time.Duration
	violations []string
}

// send follows the schedule from start. A frame due while the connection
// is at the in-flight cap is skipped, never queued: a sender that waits
// makes latency track its own backlog instead of the server's.
func (g *gateway) send(start time.Time) {
	defer g.sendDone.Store(true)
	for i, a := range g.sched {
		due := start.Add(a.due)
		sleepUntil(due)
		now := time.Now()
		g.late[i] = now.Sub(due)
		if g.inFlight.Load() >= inFlightCap {
			continue
		}
		g.inFlight.Add(1)
		g.sent[i] = true
		seq := uint64(i) + 1
		if err := g.cl.SendFrame(seq, a.class, g.pool[a.frame]); err != nil {
			g.sent[i] = false
			g.inFlight.Add(-1)
			g.sendErr = err
			return
		}
		if g.tr != nil {
			end := time.Now()
			g.sendUS = append(g.sendUS, us(end.Sub(now)))
			if seq%g.every == 0 {
				g.tr.record(0, "ingest.send", now, end, frameSpanID(g.idx, seq), int64(seq))
			}
		}
	}
}

// read accounts for RESULTs until the sender is done and nothing is in
// flight, or until the deadline.
func (g *gateway) read(start, deadline time.Time) {
	for !(g.sendDone.Load() && g.inFlight.Load() == 0) && time.Now().Before(deadline) {
		m, err := g.cl.Read(50 * time.Millisecond)
		if err != nil {
			if ingest.IsTimeout(err) {
				continue
			}
			g.violations = append(g.violations, fmt.Sprintf("gateway %d: read: %v", g.idx, err))
			return
		}
		g.handle(start, m)
	}
}

func (g *gateway) handle(start time.Time, m *ingest.Message) {
	now := time.Now()
	switch {
	case m.Type == ingest.TypeRetryAfter && m.Seq == 0:
		return // advisory backpressure, not about one frame
	case m.Type != ingest.TypeResult && m.Type != ingest.TypeRetryAfter:
		g.violations = append(g.violations, fmt.Sprintf("gateway %d: unexpected message type %d (%s)", g.idx, m.Type, m.Text))
		return
	}
	i := int(m.Seq) - 1
	if i < 0 || i >= len(g.sched) {
		g.violations = append(g.violations, fmt.Sprintf("gateway %d: reply for unknown frame %d", g.idx, m.Seq))
		return
	}
	if g.got[i] {
		g.violations = append(g.violations, fmt.Sprintf("gateway %d: second reply for frame %d", g.idx, m.Seq))
		return
	}
	g.got[i] = true
	g.inFlight.Add(-1)
	a := g.sched[i]
	due := start.Add(a.due)
	g.lat[i] = now.Sub(due)
	if g.tr != nil && m.Seq%g.every == 0 {
		g.tr.record(frameSpanID(g.idx, m.Seq), "loadgen.frame", due, now, 0, int64(m.Seq))
	}
	if m.Type == ingest.TypeRetryAfter {
		g.status[i] = outRefused
		return
	}
	switch m.Status {
	case ingest.StatusOK:
		g.status[i] = outOK
		det := perception.Detection{Obstacle: m.Obstacle, Confidence: m.Confidence, Uncertainty: m.Uncertainty}
		if !g.matches(a.frame, det) {
			g.violations = append(g.violations, fmt.Sprintf("gateway %d: frame %d (pool %d): detection %+v matches no level's reference",
				g.idx, m.Seq, a.frame, det))
		}
	case ingest.StatusShed:
		g.status[i] = outShed
	case ingest.StatusQuarantined:
		g.status[i] = outQuarantined
	default:
		g.status[i] = outError
	}
}

// matches reports whether det equals the frame's reference at some level:
// a governed instance may serve a frame at any level.
func (g *gateway) matches(frame uint16, det perception.Detection) bool {
	for k := range g.refs {
		if sameDetection(det, g.refs[k][frame]) {
			return true
		}
	}
	return false
}

// account merges the gateways' per-arrival records for frames due in
// [from, to) (offsets from the run's start).
func account(gws []*gateway, from, to time.Duration) tally {
	t := tally{LatMS: newSliced(to - from), EmergencyMS: newSliced(to - from)}
	for _, g := range gws {
		t.Violations = append(t.Violations, g.violations...)
		if g.sendErr != nil {
			t.Violations = append(t.Violations, fmt.Sprintf("gateway %d: send: %v", g.idx, g.sendErr))
		}
		for i, a := range g.sched {
			if g.got[i] && !g.sent[i] {
				t.Violations = append(t.Violations, fmt.Sprintf("gateway %d: reply for frame %d that was never sent", g.idx, i+1))
			}
			if a.due < from || a.due >= to {
				continue
			}
			t.Due++
			emergency := a.class == safety.Emergency
			if emergency {
				t.EmergencyDue++
			}
			t.LateUS = append(t.LateUS, us(g.late[i]))
			o := outLost
			switch {
			case !g.sent[i]:
				o = outSkipped
			case g.got[i]:
				o = g.status[i]
			}
			t.Counts[o]++
			if o != outOK {
				continue
			}
			l, at := ms(g.lat[i]), a.due-from
			t.LatMS.add(at, l)
			good := g.lat[i] <= classLimit(a.class)
			if good {
				t.Goodput++
			}
			if emergency {
				t.EmergencyMS.add(at, l)
				if good {
					t.EmergencyGood++
				}
			}
		}
	}
	return t
}

// runGateways dials one connection per schedule and drives them from
// start, then waits for every reply or the drain deadline.
func runGateways(addr string, scheds [][]arrival, pool []*tensor.Tensor, refs [][]perception.Detection, tr *tracer, every uint64, start time.Time, drain time.Duration) ([]*gateway, error) {
	gws := make([]*gateway, len(scheds))
	for c, sched := range scheds {
		cl, err := ingest.Dial(addr, "bench", fmt.Sprintf("gw%d", c), 5*time.Second)
		if err != nil {
			for _, g := range gws[:c] {
				_ = g.cl.Close() // abandoning the run; the dial error is what gets reported
			}
			return nil, err
		}
		n := len(sched)
		gws[c] = &gateway{idx: c, cl: cl, sched: sched, pool: pool, refs: refs, tr: tr, every: every,
			sent: make([]bool, n), late: make([]time.Duration, n),
			got: make([]bool, n), status: make([]outcome, n), lat: make([]time.Duration, n)}
	}
	var horizon time.Duration
	for _, s := range scheds {
		if len(s) > 0 {
			horizon = max(horizon, s[len(s)-1].due)
		}
	}
	deadline := start.Add(horizon + drain)
	var wg sync.WaitGroup
	for _, g := range gws {
		wg.Add(2)
		go func(g *gateway) { defer wg.Done(); g.send(start) }(g)
		go func(g *gateway) { defer wg.Done(); g.read(start, deadline) }(g)
	}
	wg.Wait()
	for _, g := range gws {
		_ = g.cl.Close() // every reply is in or the drain gave up; nothing is buffered
	}
	return gws, nil
}
