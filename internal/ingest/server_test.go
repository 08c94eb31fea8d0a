package ingest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/perception"
	"repro/internal/safety"
	"repro/internal/tensor"
)

// stubBackend mimics the dispatcher's contract — bounded job queue,
// worker pool, tagged results — with a configurable per-frame service
// time, so overload tests control the service rate precisely instead of
// depending on model inference speed.
type stubBackend struct {
	jobs    chan stubJob
	results chan fleet.Result
	wg      sync.WaitGroup
	delay   time.Duration
	served  atomic.Int64
	// errs, when set before the first frame, fails each job with the
	// next queued error until it runs dry.
	errs chan error
}

type stubJob struct {
	model string
	tag   any
}

func newStubBackend(workers, queueCap int, delay time.Duration) *stubBackend {
	b := &stubBackend{
		jobs:    make(chan stubJob, queueCap),
		results: make(chan fleet.Result, 4096),
		delay:   delay,
	}
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

func (b *stubBackend) worker() {
	defer b.wg.Done()
	for j := range b.jobs {
		if b.delay > 0 {
			time.Sleep(b.delay)
		}
		b.served.Add(1)
		res := fleet.Result{
			Model:     j.model,
			Tag:       j.tag,
			Detection: perception.Detection{Obstacle: true, Confidence: 0.9, Uncertainty: 0.1},
		}
		select {
		case err := <-b.errs:
			res.Detection, res.Err = perception.Detection{}, err
		default:
		}
		b.results <- res
	}
}

func (b *stubBackend) SubmitTagged(model string, frame *tensor.Tensor, tag any) (int64, error) {
	if model == "missing" {
		return 0, fmt.Errorf("fleet: unknown instance %q", model)
	}
	b.jobs <- stubJob{model: model, tag: tag}
	return 0, nil
}

func (b *stubBackend) Results() <-chan fleet.Result { return b.results }

func (b *stubBackend) Close() {
	close(b.jobs)
	b.wg.Wait()
	close(b.results)
}

// startServer spins up a server over a stub backend on an ephemeral
// port. The returned shutdown runs a bounded graceful drain and closes
// the backend; tests that shut down manually pass their own sequence.
func startServer(t *testing.T, cfg Config, b *stubBackend) (*Server, func()) {
	t.Helper()
	cfg.Backend = b
	s, err := Listen(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		b.Close()
	}
}

// assertNoGoroutineLeak asserts the goroutine count settles back to the
// baseline (small slack for runtime helpers), the goroleak-style runtime
// check the shutdown paths are held to.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
}

func TestServerEcho(t *testing.T) {
	baseline := runtime.NumGoroutine()
	obs := newRecObs()
	b := newStubBackend(2, 8, 0)
	s, shutdown := startServer(t, Config{Observer: obs}, b)

	cl, err := Dial(s.Addr().String(), "acme", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := cl.SendFrame(seq, safety.Critical, testFrame(16)); err != nil {
			t.Fatal(err)
		}
		m, err := cl.Read(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != TypeResult || m.Seq != seq || m.Status != StatusOK || !m.Obstacle {
			t.Fatalf("result %d: %+v", seq, m)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	shutdown()
	if got := obs.acceptedTotal(); got != 3 {
		t.Errorf("accepted = %d want 3", got)
	}
	if got := obs.shedTotal(); got != 0 {
		t.Errorf("shed = %d want 0", got)
	}
	assertNoGoroutineLeak(t, baseline)
}

func TestServerConnLimitAndRelease(t *testing.T) {
	obs := newRecObs()
	b := newStubBackend(1, 4, 0)
	s, shutdown := startServer(t, Config{
		Observer: obs,
		Tenants:  map[string]TenantLimits{"capped": {MaxConns: 1}},
	}, b)
	defer shutdown()

	first, err := Dial(s.Addr().String(), "capped", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Dial(s.Addr().String(), "capped", "car1", time.Second)
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != ReasonConnLimit {
		t.Fatalf("second dial: err = %v, want conn-limit reject", err)
	}
	if obs.rejectedOf("conn-limit") != 1 {
		t.Errorf("rejected{conn-limit} = %d want 1", obs.rejectedOf("conn-limit"))
	}
	// Another tenant is unaffected.
	other, err := Dial(s.Addr().String(), "other", "car2", time.Second)
	if err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	// Releasing the capped tenant's conn frees the slot.
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		cl, err := Dial(s.Addr().String(), "capped", "car3", time.Second)
		if err == nil {
			if cerr := cl.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerRateLimitRetryAfter(t *testing.T) {
	obs := newRecObs()
	b := newStubBackend(1, 4, 0)
	s, shutdown := startServer(t, Config{
		Observer: obs,
		Tenants:  map[string]TenantLimits{"slow": {FramesPerSec: 5, Burst: 1}},
	}, b)
	defer shutdown()

	cl, err := Dial(s.Addr().String(), "slow", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := cl.SendFrame(1, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Read(2 * time.Second)
	if err != nil || m.Type != TypeResult || m.Status != StatusOK {
		t.Fatalf("first frame: %+v, %v", m, err)
	}
	// Bucket empty: the second frame draws a typed RETRY-AFTER carrying
	// a wait that, once slept, admits the retry.
	if err := cl.SendFrame(2, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	m, err = cl.Read(2 * time.Second)
	if err != nil || m.Type != TypeRetryAfter || m.Reason != ReasonRateLimited || m.Seq != 2 {
		t.Fatalf("over-rate frame: %+v, %v", m, err)
	}
	if m.Millis == 0 || m.Millis > 1000 {
		t.Fatalf("retry hint %dms, want (0, 1000] at 5 fps", m.Millis)
	}
	time.Sleep(time.Duration(m.Millis) * time.Millisecond)
	if err := cl.SendFrame(3, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	m, err = cl.Read(2 * time.Second)
	if err != nil || m.Type != TypeResult || m.Status != StatusOK {
		t.Fatalf("post-wait frame: %+v, %v", m, err)
	}
	if obs.rejectedOf("rate-limited") != 1 {
		t.Errorf("rejected{rate-limited} = %d want 1", obs.rejectedOf("rate-limited"))
	}
}

// collectResults drains client messages, counting results by status and
// recording which seqs were shed/served, until the conn breaks or the
// wanted number of RESULTs arrived.
type clientTally struct {
	mu       sync.Mutex
	byStatus map[Status]int
	bySeq    map[uint64]Status
	retries  map[Reason]int
}

func tallyClient(cl *Client, want int, done chan<- *clientTally) {
	ta := &clientTally{byStatus: map[Status]int{}, bySeq: map[uint64]Status{}, retries: map[Reason]int{}}
	results := 0
	for results < want {
		m, err := cl.Read(10 * time.Second)
		if err != nil {
			break
		}
		switch m.Type {
		case TypeResult:
			ta.mu.Lock()
			ta.byStatus[m.Status]++
			ta.bySeq[m.Seq] = m.Status
			ta.mu.Unlock()
			results++
		case TypeRetryAfter:
			ta.mu.Lock()
			ta.retries[m.Reason]++
			ta.mu.Unlock()
			if m.Seq != 0 {
				// A refused frame is not owed a RESULT.
				results++
			}
		}
	}
	done <- ta
}

func TestServerOverloadShedsLowestClassFirst(t *testing.T) {
	baseline := runtime.NumGoroutine()
	obs := newRecObs()
	// Service rate: 1 worker × 1ms/frame = ~1000 fps. Arrival: 4
	// frames/ms = ~4000 fps — the 4x sustained overload of the
	// acceptance criteria. Queue of 16 saturates in the first few
	// milliseconds.
	b := newStubBackend(1, 1, time.Millisecond)
	s, shutdown := startServer(t, Config{Observer: obs, QueueCap: 16, Pumps: 2}, b)

	cl, err := Dial(s.Addr().String(), "fleet", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const total = 400
	// Deterministic class schedule ~ 50/30/15/5: emergencies are rare,
	// the way real criticality is distributed.
	classOf := func(i int) safety.Criticality {
		switch {
		case i%20 == 19:
			return safety.Emergency
		case i%20 >= 16:
			return safety.Critical
		case i%20 >= 10:
			return safety.Elevated
		default:
			return safety.Nominal
		}
	}
	done := make(chan *clientTally, 1)
	go tallyClient(cl, total, done)

	frame := testFrame(16)
	emergencies := map[uint64]bool{}
	for i := 0; i < total; i++ {
		c := classOf(i)
		if c == safety.Emergency {
			emergencies[uint64(i+1)] = true
		}
		if err := cl.SendFrame(uint64(i+1), c, frame); err != nil {
			t.Fatal(err)
		}
		// Pace arrivals at ~4x the service rate.
		if i%4 == 3 {
			time.Sleep(time.Millisecond)
		}
	}
	ta := <-done
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	shutdown()

	ta.mu.Lock()
	defer ta.mu.Unlock()
	if ta.byStatus[StatusShed] == 0 {
		t.Fatal("4x overload shed nothing — the queue absorbed an unbounded backlog")
	}
	// The acceptance invariant: zero emergency-class sheds; every
	// emergency frame was served.
	if got := obs.shedOf(safety.Emergency.String()); got != 0 {
		t.Fatalf("shed{emergency} = %d, want 0", got)
	}
	for seq := range emergencies {
		if st, ok := ta.bySeq[seq]; !ok || st != StatusOK {
			t.Fatalf("emergency frame %d: status %v (present %v), want StatusOK", seq, st, ok)
		}
	}
	// Counter agreement: the server's shed count equals the client's
	// StatusShed tally, and accepted = delivered results.
	if obs.shedTotal() != ta.byStatus[StatusShed] {
		t.Fatalf("rpn_ingest_shed_total %d != client shed tally %d", obs.shedTotal(), ta.byStatus[StatusShed])
	}
	delivered := ta.byStatus[StatusOK] + ta.byStatus[StatusShed] + ta.byStatus[StatusError] + ta.byStatus[StatusQuarantined]
	if obs.acceptedTotal() != delivered {
		t.Fatalf("accepted %d != delivered results %d", obs.acceptedTotal(), delivered)
	}
	// Backpressure advisories flowed while the queue rode the watermark.
	obs.mu.Lock()
	bp := obs.backpressure
	obs.mu.Unlock()
	if bp == 0 {
		t.Error("no advisory backpressure at sustained 4x overload")
	}
	assertNoGoroutineLeak(t, baseline)
}

func TestServerGracefulDrainLosesNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	obs := newRecObs()
	b := newStubBackend(1, 4, 2*time.Millisecond)
	s, _ := startServer(t, Config{Observer: obs, QueueCap: 64}, b)

	cl, err := Dial(s.Addr().String(), "fleet", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 32
	done := make(chan *clientTally, 1)
	go tallyClient(cl, burst, done)
	for i := 0; i < burst; i++ {
		if err := cl.SendFrame(uint64(i+1), safety.Criticality(i%4), testFrame(8)); err != nil {
			t.Fatal(err)
		}
	}
	// Let the reader accept the burst, then drain mid-flight.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain exceeded its deadline: %v", err)
	}
	ta := <-done
	b.Close()
	if err := cl.Close(); err == nil {
		// The server already closed the socket; a second close may or
		// may not error depending on timing — both are fine.
		_ = err
	}

	// Every accepted frame got a result: the client's tally covers all
	// accepted frames (frames that arrived after drain started got
	// RETRY-AFTER draining instead and are not owed results).
	ta.mu.Lock()
	delivered := ta.byStatus[StatusOK] + ta.byStatus[StatusShed] + ta.byStatus[StatusError]
	drainRefusals := ta.retries[ReasonDraining]
	ta.mu.Unlock()
	if delivered != obs.acceptedTotal() {
		t.Fatalf("drain lost frames: accepted %d, results delivered %d (drain refusals %d)",
			obs.acceptedTotal(), delivered, drainRefusals)
	}
	if delivered+drainRefusals != burst {
		t.Fatalf("results %d + refusals %d != sent %d", delivered, drainRefusals, burst)
	}
	// New connections are refused while/after draining.
	if _, err := Dial(s.Addr().String(), "fleet", "late", 500*time.Millisecond); err == nil {
		t.Fatal("post-drain dial accepted")
	}
	assertNoGoroutineLeak(t, baseline)
}

func TestServerIdleReap(t *testing.T) {
	b := newStubBackend(1, 4, 0)
	s, shutdown := startServer(t, Config{IdleTimeout: 100 * time.Millisecond}, b)
	defer shutdown()

	cl, err := Dial(s.Addr().String(), "fleet", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Logf("close after reap: %v", err)
		}
	}()
	// Say nothing; the idle deadline must reap us.
	if _, err := cl.Read(3 * time.Second); err == nil {
		t.Fatal("idle connection not reaped")
	}
}

func TestServerSubmitErrorSurfaces(t *testing.T) {
	b := newStubBackend(1, 4, 0)
	s, shutdown := startServer(t, Config{}, b)
	defer shutdown()

	cl, err := Dial(s.Addr().String(), "fleet", "missing", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := cl.SendFrame(1, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Read(2 * time.Second)
	if err != nil || m.Type != TypeResult || m.Status != StatusError || m.Text == "" {
		t.Fatalf("unknown-model frame: %+v, %v", m, err)
	}
}

// TestServerLongBackendErrorKeepsConnection: a backend error longer than
// the wire's string bound reaches the client clipped on a UTF-8 boundary
// as a StatusError RESULT, and the next frame on the same connection is
// still served.
func TestServerLongBackendErrorKeepsConnection(t *testing.T) {
	b := newStubBackend(1, 4, 0)
	long := "x" + strings.Repeat("ü", 150) // 301 bytes; byte maxName falls mid-rune
	b.errs = make(chan error, 1)
	b.errs <- errors.New(long)
	s, shutdown := startServer(t, Config{}, b)
	defer shutdown()

	cl, err := Dial(s.Addr().String(), "acme", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := cl.SendFrame(1, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Read(2 * time.Second)
	if err != nil {
		t.Fatalf("long backend error severed the connection: %v", err)
	}
	if m.Type != TypeResult || m.Seq != 1 || m.Status != StatusError {
		t.Fatalf("long-error frame: %+v", m)
	}
	if len(m.Text) != maxName-1 || !utf8.ValidString(m.Text) || !strings.HasPrefix(long, m.Text) {
		t.Fatalf("error text %d bytes %q, want the error's first %d bytes", len(m.Text), m.Text, maxName-1)
	}
	if err := cl.SendFrame(2, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	m, err = cl.Read(2 * time.Second)
	if err != nil || m.Type != TypeResult || m.Seq != 2 || m.Status != StatusOK {
		t.Fatalf("frame after the long error: %+v, %v", m, err)
	}
}

func TestRouteQuarantineMapping(t *testing.T) {
	obs := newRecObs()
	b := newStubBackend(1, 1, 0)
	s, shutdown := startServer(t, Config{Observer: obs}, b)
	defer shutdown()
	reply := &httpReply{ch: make(chan *Message, 1)}
	it := &item{sink: reply, seq: 77, class: safety.Critical, arrived: time.Now()}
	s.pendingWG.Add(1)
	s.route(fleet.Result{Err: fleet.ErrQuarantined, Tag: &pending{it: it}})
	m := <-reply.ch
	if m.Status != StatusQuarantined || m.Seq != 77 {
		t.Fatalf("quarantined result mapped to %+v", m)
	}
	// Untagged results (in-process submitters) pass the router by.
	s.route(fleet.Result{Model: "other"})
}

func TestServerChaosDrill(t *testing.T) {
	baseline := runtime.NumGoroutine()
	specs, err := fault.ParseSpecs("conn-drop:car0:after=3:for=1,slow-loris:car1:latency=30ms:for=2,garble-frames:car2:for=1")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(11, specs...)
	obs := newRecObs()
	b := newStubBackend(2, 8, 0)
	s, shutdown := startServer(t, Config{Observer: obs, Injector: inj}, b)

	// conn-drop: car0's 4th message (3 frames + the severed one) cuts
	// the stream; the client sees the close and reconnects cleanly.
	cl, err := Dial(s.Addr().String(), "fleet", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := cl.SendFrame(seq, safety.Nominal, testFrame(4)); err != nil {
			t.Fatal(err)
		}
		if m, err := cl.Read(2 * time.Second); err != nil || m.Status != StatusOK {
			t.Fatalf("pre-drop frame %d: %+v, %v", seq, m, err)
		}
	}
	// Events are 0-based: frames 1-3 pass the after=3 window, frame 4
	// fires it (the HELLO does not count — wire events are per-peer
	// frames) and the connection drops mid-read.
	if err := cl.SendFrame(3, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendFrame(4, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	sawDrop := false
	for i := 0; i < 2; i++ {
		if _, err := cl.Read(2 * time.Second); err != nil {
			sawDrop = true
			break
		}
	}
	if !sawDrop {
		t.Fatal("armed conn-drop window did not sever the stream")
	}
	if err := cl.Close(); err != nil {
		t.Logf("close severed conn: %v", err)
	}
	// Reconnect works: the slot was released, no state leaked.
	cl2, err := Dial(s.Addr().String(), "fleet", "car0", time.Second)
	if err != nil {
		t.Fatalf("reconnect after conn-drop: %v", err)
	}
	if err := cl2.SendFrame(10, safety.Critical, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	if m, err := cl2.Read(2 * time.Second); err != nil || m.Status != StatusOK {
		t.Fatalf("post-reconnect frame: %+v, %v", m, err)
	}
	if err := cl2.Close(); err != nil {
		t.Fatal(err)
	}

	// slow-loris: car1's first two frames stall ~30ms each but still
	// serve; the stall is bounded by the armed latency, not unbounded.
	cl3, err := Dial(s.Addr().String(), "fleet", "car1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := cl3.SendFrame(1, safety.Nominal, testFrame(4)); err != nil {
		t.Fatal(err)
	}
	if m, err := cl3.Read(3 * time.Second); err != nil || m.Status != StatusOK {
		t.Fatalf("slow-loris frame: %+v, %v", m, err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("slow-loris stall not applied: %v", elapsed)
	}
	if err := cl3.Close(); err != nil {
		t.Fatal(err)
	}

	// garble-frames: car2's first frame corrupts on the wire and draws
	// a bad-frame reject; the connection survives and the next frame
	// serves.
	cl4, err := Dial(s.Addr().String(), "fleet", "car2", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl4.SendFrame(1, safety.Nominal, testFrame(16)); err != nil {
		t.Fatal(err)
	}
	m, err := cl4.Read(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeReject || m.Reason != ReasonBadFrame {
		t.Fatalf("garbled frame drew %+v, want bad-frame reject", m)
	}
	if err := cl4.SendFrame(2, safety.Emergency, testFrame(16)); err != nil {
		t.Fatal(err)
	}
	if m, err := cl4.Read(2 * time.Second); err != nil || m.Status != StatusOK {
		t.Fatalf("post-garble frame: %+v, %v", m, err)
	}
	if err := cl4.Close(); err != nil {
		t.Fatal(err)
	}
	if obs.rejectedOf("bad-frame") == 0 {
		t.Error("garble drill left no bad-frame rejection trace")
	}

	shutdown()
	assertNoGoroutineLeak(t, baseline)
}

func TestServerShutdownIdempotent(t *testing.T) {
	b := newStubBackend(1, 4, 0)
	s, _ := startServer(t, Config{}, b)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown %d: %v", i, err)
		}
		cancel()
	}
	b.Close()
}
