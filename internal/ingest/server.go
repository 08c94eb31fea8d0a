package ingest

// server.go is the TCP front end: the accept loop, the per-connection
// reader/writer pair, the dispatcher pumps, and the result router.
//
// Data path: reader → admission (rate limit) → classQueue (shed policy)
// → pump → Backend.SubmitTagged(tag: *pending) → router ranges
// Backend.Results() and delivers each RESULT to the tag's sink. The tag
// carries the origin through the dispatcher, so results route without a
// seq-indexed map (which the result arriving before the map write would
// race).
//
// Every accepted frame is owed exactly one RESULT — served, shed, or
// error — tracked by the pending WaitGroup; graceful drain is "stop
// accepting, flush the queues, wait for pending to hit zero" under a
// context deadline. The invariant the overload e2e pins down:
// accepted = delivered results, and rpn_ingest_shed_total{class} counts
// exactly the StatusShed deliveries per class.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/tensor"
)

// Backend is the inference fan-out behind the front end.
// fleet.Dispatcher satisfies it; tests substitute stubs for precise
// overload control.
type Backend interface {
	// SubmitTagged queues one frame for the named instance; the frame's
	// Result carries tag back verbatim.
	SubmitTagged(model string, frame *tensor.Tensor, tag any) (int64, error)
	// Results is the completion stream.
	Results() <-chan fleet.Result
}

// resultSink receives one frame's RESULT; TCP connections and HTTP
// requests both implement it.
type resultSink interface {
	// deliver hands over the result; false means the sink is gone (the
	// result is dropped — its client already disconnected).
	deliver(m *Message) bool
}

// Config parameterizes a Server. Backend is required; every other zero
// value gets the documented default.
type Config struct {
	// Backend serves accepted frames.
	Backend Backend
	// DefaultLimits applies to tenants without an override in Tenants.
	// The zero value is unlimited.
	DefaultLimits TenantLimits
	// Tenants maps tenant name → limits override.
	Tenants map[string]TenantLimits
	// QueueCap bounds total queued frames across classes (default 64);
	// ClassCap bounds one class (default QueueCap).
	QueueCap int
	ClassCap int
	// Pumps is the number of queue→backend pump goroutines (default 2).
	Pumps int
	// MaxPayload bounds one message's payload bytes (default
	// DefaultMaxPayload).
	MaxPayload int
	// IdleTimeout reaps connections with no traffic (default 30s): the
	// per-read deadline, so a slow-loris peer cannot hold a slot open by
	// trickling nothing.
	IdleTimeout time.Duration
	// WriteTimeout bounds one message write (default 10s); a client not
	// draining its results is severed when it expires.
	WriteTimeout time.Duration
	// HighWatermark is the queue depth that triggers advisory
	// RETRY-AFTER backpressure (default 3/4 of QueueCap).
	HighWatermark int
	// RetryHint is the pause advisory backpressure suggests, and the
	// minimum interval between advisories per connection (default 50ms).
	RetryHint time.Duration
	// ModelFor maps a vehicle name to its fleet instance name (default:
	// identity).
	ModelFor func(vehicle string) string
	// Observer receives the rpn_ingest_* telemetry (default: none).
	Observer Observer
	// Injector, when non-nil, arms the wire fault point on every
	// received message (chaos drills: conn-drop, slow-loris,
	// garble-frames).
	Injector *fault.Injector
}

// pending is the dispatcher tag of one in-flight accepted frame.
type pending struct{ it *item }

// Server is the running front end.
type Server struct {
	cfg   Config
	ln    net.Listener
	adm   *admission
	queue *classQueue
	obs   Observer

	// wg joins every goroutine the server owns: accept loop, pumps,
	// router, per-connection readers and writers.
	wg sync.WaitGroup
	// pendingWG counts accepted frames whose RESULT has not yet been
	// handed to its sink; Shutdown waits for it to drain.
	pendingWG  sync.WaitGroup
	draining   atomic.Bool
	stopRouter chan struct{}

	mu    sync.Mutex
	conns map[*serverConn]struct{}
}

// Serve starts a front end on an existing listener and returns
// immediately; the accept loop, pumps, and router run until Shutdown.
func Serve(cfg Config, ln net.Listener) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("ingest: Config.Backend is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.ClassCap <= 0 {
		cfg.ClassCap = cfg.QueueCap
	}
	if cfg.Pumps <= 0 {
		cfg.Pumps = 2
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.HighWatermark <= 0 {
		cfg.HighWatermark = cfg.QueueCap * 3 / 4
	}
	if cfg.RetryHint <= 0 {
		cfg.RetryHint = 50 * time.Millisecond
	}
	if cfg.ModelFor == nil {
		cfg.ModelFor = func(vehicle string) string { return vehicle }
	}
	if cfg.Observer == nil {
		cfg.Observer = nopObserver{}
	}
	s := &Server{
		cfg:        cfg,
		ln:         ln,
		adm:        newAdmission(cfg.DefaultLimits, cfg.Tenants),
		obs:        cfg.Observer,
		stopRouter: make(chan struct{}),
		conns:      map[*serverConn]struct{}{},
	}
	s.queue = newClassQueue(cfg.QueueCap, cfg.ClassCap, cfg.Observer)
	s.wg.Add(1)
	go s.acceptLoop()
	for i := 0; i < cfg.Pumps; i++ {
		s.wg.Add(1)
		go s.pump()
	}
	s.wg.Add(1)
	go s.router()
	return s, nil
}

// Listen opens a TCP listener on addr and serves on it.
func Listen(cfg Config, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	s, err := Serve(cfg, ln)
	if err != nil {
		_ = ln.Close() //lint:allow(errdrop) listener never served; nothing to flush
		return nil, err
	}
	return s, nil
}

// Addr returns the listener's address, for clients started on port 0.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			// Listener closed (Shutdown) or fatally broken; either way
			// the accept loop is done.
			return
		}
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// handleConn runs one connection: HELLO handshake, admission, then the
// frame read loop until the peer hangs up, a deadline reaps it, or the
// server tears it down.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	br := bufio.NewReader(c)
	sc, ok := s.handshake(c, br)
	if !ok {
		return
	}
	s.readFrames(sc, br)
	sc.teardown()
	// The writer owns the socket close (it must flush queued results
	// first); the reader only unregisters and releases admission.
	s.dropConn(sc)
}

// rejectAndClose answers a pre-admission failure and closes the socket
// directly (no writer goroutine exists yet).
func (s *Server) rejectAndClose(c net.Conn, reason Reason, text string) {
	s.obs.ObserveIngestRejected(reason.String())
	if err := c.SetWriteDeadline(now().Add(s.cfg.WriteTimeout)); err == nil {
		_ = WriteMessage(c, &Message{Type: TypeReject, Reason: reason, Text: text}, s.cfg.MaxPayload) //lint:allow(errdrop) best-effort courtesy reject; the close is the real signal
	}
	_ = c.Close() //lint:allow(errdrop) inbound socket, nothing buffered to flush
}

// handshake performs HELLO → WELCOME/REJECT and registers the
// connection, reading through br, the connection's one buffered reader.
// ok=false means the socket is already closed.
func (s *Server) handshake(c net.Conn, br *bufio.Reader) (*serverConn, bool) {
	if err := c.SetReadDeadline(now().Add(s.cfg.IdleTimeout)); err != nil {
		_ = c.Close() //lint:allow(errdrop) socket already unusable
		return nil, false
	}
	m, err := ReadMessage(br, s.cfg.MaxPayload)
	if err != nil || m.Type != TypeHello {
		s.rejectAndClose(c, ReasonProtocol, "expected HELLO")
		return nil, false
	}
	if s.draining.Load() {
		s.rejectAndClose(c, ReasonDraining, "server draining")
		return nil, false
	}
	release, reason, ok := s.adm.AdmitConn(m.Tenant, now())
	if !ok {
		s.rejectAndClose(c, reason, "tenant connection cap reached")
		return nil, false
	}
	s.obs.SetIngestConnections(s.adm.Conns())
	sc := &serverConn{
		srv:     s,
		c:       c,
		tenant:  m.Tenant,
		vehicle: m.Vehicle,
		out:     make(chan *Message, 256),
		done:    make(chan struct{}),
		release: release,
	}
	s.mu.Lock()
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go sc.writeLoop()
	if !sc.send(&Message{Type: TypeWelcome}) {
		sc.teardown()
		s.dropConn(sc)
		return nil, false
	}
	return sc, true
}

// dropConn unregisters and releases one connection's admission slot.
func (s *Server) dropConn(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
	sc.release()
	s.obs.SetIngestConnections(s.adm.Conns())
}

// maxKeptPayload bounds the payload buffer a connection keeps between
// messages; a rarer, larger message gets a one-off buffer.
const maxKeptPayload = 64 << 10

// readFrames is the per-connection frame loop. It reads through br, so one
// read syscall can bring in several frames, and decodes every payload from
// one reused buffer: DecodeMessage copies out everything it keeps.
func (s *Server) readFrames(sc *serverConn, br *bufio.Reader) {
	var kept []byte
	for {
		if err := sc.c.SetReadDeadline(now().Add(s.cfg.IdleTimeout)); err != nil {
			return
		}
		payload, err := ReadPayload(br, kept, s.cfg.MaxPayload)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				s.obs.ObserveIngestRejected(ReasonTooLarge.String())
				sc.send(&Message{Type: TypeReject, Reason: ReasonTooLarge, Text: errText(err)})
			}
			// EOF, idle deadline, teardown kick, or an oversized claim:
			// the stream is unrecoverable past a bad length prefix.
			return
		}
		if cap(payload) <= maxKeptPayload {
			kept = payload
		}
		if s.cfg.Injector != nil {
			drop, stall := s.cfg.Injector.OnWire(sc.vehicle, payload)
			if stall > 0 {
				sleep(stall)
			}
			if drop {
				return
			}
		}
		m, err := DecodeMessage(payload)
		if err != nil {
			// Framing is length-prefixed, so one garbled payload does not
			// desynchronize the stream; reject the message, keep the
			// connection (chaos garble windows would otherwise sever every
			// peer they touch).
			s.obs.ObserveIngestRejected(ReasonBadFrame.String())
			sc.send(&Message{Type: TypeReject, Reason: ReasonBadFrame, Text: errText(err)})
			continue
		}
		if m.Type != TypeFrame {
			s.obs.ObserveIngestRejected(ReasonProtocol.String())
			sc.send(&Message{Type: TypeReject, Reason: ReasonProtocol, Text: fmt.Sprintf("unexpected type %d", m.Type)})
			continue
		}
		s.handleFrame(sc, m)
	}
}

// drainRetryMillis is the pause suggested to clients whose frames arrive
// during drain: long enough to re-resolve and reconnect elsewhere.
const drainRetryMillis = 1000

// handleFrame runs one FRAME through rate limiting and the shed queue.
func (s *Server) handleFrame(sc *serverConn, m *Message) {
	arrived := now()
	if s.draining.Load() {
		s.obs.ObserveIngestRejected(ReasonDraining.String())
		sc.send(&Message{Type: TypeRetryAfter, Seq: m.Seq, Millis: drainRetryMillis, Reason: ReasonDraining})
		return
	}
	if wait, ok := s.adm.AllowFrame(sc.tenant, arrived); !ok {
		s.obs.ObserveIngestRejected(ReasonRateLimited.String())
		sc.send(&Message{Type: TypeRetryAfter, Seq: m.Seq, Millis: ceilMillis(wait), Reason: ReasonRateLimited})
		return
	}
	it := &item{
		sink:    sc,
		seq:     m.Seq,
		class:   m.Class,
		frame:   m.Frame,
		model:   s.cfg.ModelFor(sc.vehicle),
		arrived: arrived,
	}
	s.pendingWG.Add(1)
	victims, ok := s.queue.Push(it)
	if !ok {
		// Closed under us (drain raced the flag check).
		s.pendingWG.Done()
		s.obs.ObserveIngestRejected(ReasonDraining.String())
		sc.send(&Message{Type: TypeRetryAfter, Seq: m.Seq, Millis: drainRetryMillis, Reason: ReasonDraining})
		return
	}
	s.obs.ObserveIngestAccepted(it.class.String())
	s.obs.ObserveIngestEnqueue(now().Sub(arrived))
	for _, v := range victims {
		s.obs.ObserveIngestShed(v.class.String())
		s.finish(v, &Message{Type: TypeResult, Seq: v.seq, Status: StatusShed})
	}
	if s.queue.Depth() >= s.cfg.HighWatermark {
		sc.maybeAdvisory(arrived)
	}
}

// ceilMillis converts a wait to whole milliseconds, rounding up so a
// client sleeping the advertised time always finds a token.
func ceilMillis(d time.Duration) uint32 {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	return uint32(ms)
}

// finish delivers one accepted frame's RESULT and retires its pending
// slot. Exactly one finish runs per accepted frame.
func (s *Server) finish(it *item, m *Message) {
	it.sink.deliver(m)
	s.pendingWG.Done()
}

// pump moves frames from the shed queue into the backend until the queue
// closes and drains. The *pending tag routes the result back.
func (s *Server) pump() {
	defer s.wg.Done()
	for {
		it, ok := s.queue.Pop()
		if !ok {
			return
		}
		if _, err := s.cfg.Backend.SubmitTagged(it.model, it.frame, &pending{it: it}); err != nil {
			s.finish(it, &Message{Type: TypeResult, Seq: it.seq, Status: StatusError, Text: errText(err)})
		}
	}
}

// router delivers backend results to their origin sinks until the
// results channel closes or Shutdown stops it.
func (s *Server) router() {
	defer s.wg.Done()
	results := s.cfg.Backend.Results()
	for {
		select {
		case res, ok := <-results:
			if !ok {
				return
			}
			s.route(res)
		case <-s.stopRouter:
			return
		}
	}
}

// route turns one backend Result into a RESULT message for its sink.
// Results without a *pending tag belong to other submitters (in-process
// loops sharing the dispatcher) and pass by untouched.
func (s *Server) route(res fleet.Result) {
	p, ok := res.Tag.(*pending)
	if !ok {
		return
	}
	m := &Message{Type: TypeResult, Seq: p.it.seq}
	switch {
	case res.Err == nil:
		m.Status = StatusOK
		m.Obstacle = res.Detection.Obstacle
		m.Confidence = res.Detection.Confidence
		m.Uncertainty = res.Detection.Uncertainty
		s.obs.ObserveIngestFrameLatency(now().Sub(p.it.arrived))
	case errors.Is(res.Err, fleet.ErrQuarantined):
		m.Status = StatusQuarantined
		m.Text = errText(res.Err)
	default:
		m.Status = StatusError
		m.Text = errText(res.Err)
	}
	s.finish(p.it, m)
}

// errText renders err as a wire Text, clipped to maxName bytes on a UTF-8
// boundary: the encoder refuses longer strings, and a message that fails
// to encode severs its connection, losing every result queued behind it.
func errText(err error) string {
	s := err.Error()
	if len(s) <= maxName {
		return s
	}
	cut := maxName
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut]
}

// Shutdown drains gracefully: reject new connections and frames, close
// the listener, flush the queue through the pumps, wait (bounded by ctx)
// for every accepted frame's result to be delivered, then tear down
// connections — writers flush queued results before closing sockets —
// and join every goroutine. Returns ctx's error if the deadline cut the
// result wait short, else nil. Idempotent for sequential calls.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	_ = s.ln.Close() //lint:allow(errdrop) double-close on repeated Shutdown is the only error path
	s.queue.Close()

	drained := make(chan struct{})
	go func() {
		s.pendingWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	select {
	case <-s.stopRouter:
		// Already stopped by a prior Shutdown.
	default:
		close(s.stopRouter)
	}
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.teardown()
	}
	s.wg.Wait()
	return err
}

// serverConn is one admitted TCP connection. The reader goroutine
// (readFrames) and a dedicated writer goroutine (writeLoop) share it;
// results from pumps and the router arrive through out.
type serverConn struct {
	srv     *Server
	c       net.Conn
	tenant  string
	vehicle string
	// out carries outbound messages to the writer; done closes exactly
	// once at teardown.
	out  chan *Message
	done chan struct{}
	once sync.Once
	// release returns the admission slot; called by dropConn.
	release func()

	advMu        sync.Mutex
	lastAdvisory time.Time
}

// send queues one outbound message. A full out buffer means the client
// is not draining its results: the connection is severed rather than
// letting one slow client block the caller (a pump or another
// connection's reader delivering a shed notice).
func (sc *serverConn) send(m *Message) bool {
	select {
	case sc.out <- m:
		return true
	case <-sc.done:
		return false
	default:
		sc.teardown()
		return false
	}
}

// deliver implements resultSink.
func (sc *serverConn) deliver(m *Message) bool { return sc.send(m) }

// maybeAdvisory pushes one advisory RETRY-AFTER if none was sent within
// the hint interval — queue pressure is per-server, the advisory
// per-connection, so a hot queue doesn't flood every client every frame.
func (sc *serverConn) maybeAdvisory(at time.Time) {
	sc.advMu.Lock()
	due := sc.lastAdvisory.IsZero() || at.Sub(sc.lastAdvisory) >= sc.srv.cfg.RetryHint
	if due {
		sc.lastAdvisory = at
	}
	sc.advMu.Unlock()
	if !due {
		return
	}
	sc.srv.obs.ObserveIngestBackpressure()
	sc.send(&Message{Type: TypeRetryAfter, Seq: 0, Millis: ceilMillis(sc.srv.cfg.RetryHint), Reason: ReasonBackpressure})
}

// teardown marks the connection dead exactly once: done closes (writer
// flushes and closes the socket; pending sends fail fast) and the read
// deadline trips immediately so a blocked reader wakes.
func (sc *serverConn) teardown() {
	sc.once.Do(func() {
		close(sc.done)
		_ = sc.c.SetReadDeadline(now()) //lint:allow(errdrop) best-effort kick; a dead socket already unblocked the reader
	})
}

// writeBatch encodes m and every message already waiting on out into buf
// and sends them with one Write under the write deadline, so a burst of
// results costs one syscall rather than one each, and nothing waits for
// more to arrive. It returns buf for reuse; false means the connection is
// unusable (an encode or write failure), and messages after the failing
// one are not sent. out holds at most 256 messages of a few hundred bytes,
// which bounds buf.
func (sc *serverConn) writeBatch(buf []byte, m *Message) ([]byte, bool) {
	buf = buf[:0]
	var err error
	for waiting := len(sc.out); ; waiting-- {
		if buf, err = AppendMessage(buf, m, sc.srv.cfg.MaxPayload); err != nil || waiting == 0 {
			break
		}
		m = <-sc.out
	}
	if len(buf) > 0 {
		if sc.c.SetWriteDeadline(now().Add(sc.srv.cfg.WriteTimeout)) != nil {
			return buf, false
		}
		if _, werr := sc.c.Write(buf); werr != nil {
			return buf, false
		}
	}
	return buf, err == nil
}

// writeLoop owns the socket's write side and its final close: it drains
// out until teardown, then flushes whatever is still queued (graceful
// drain must not lose results already produced) and closes the socket.
func (sc *serverConn) writeLoop() {
	defer sc.srv.wg.Done()
	defer func() {
		_ = sc.c.Close() //lint:allow(errdrop) final close after flush; the peer sees the FIN either way
	}()
	var buf []byte
	var ok bool
	for {
		select {
		case m := <-sc.out:
			if buf, ok = sc.writeBatch(buf, m); !ok {
				sc.teardown()
				return
			}
		case <-sc.done:
			for {
				select {
				case m := <-sc.out:
					if buf, ok = sc.writeBatch(buf, m); !ok {
						return
					}
				default:
					return
				}
			}
		}
	}
}
