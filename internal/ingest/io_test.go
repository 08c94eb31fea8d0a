package ingest

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/safety"
)

// bytesPerRun reports the mean heap bytes one call of f allocates, after
// one warm-up call. Like testing.AllocsPerRun it pins GOMAXPROCS to 1 so
// other goroutines add little to the count.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeFrameAllocation pins the decode cost of one 16×16 FRAME: the
// tensor reader sizes its chunk to the frame, so a decode allocates about
// twice the frame's bytes (it allocated 66.8 KB when every read zeroed a
// 64 KiB chunk).
func TestDecodeFrameAllocation(t *testing.T) {
	payload, err := (&Message{Type: TypeFrame, Seq: 1, Class: safety.Critical, Frame: testFrame(16 * 16)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var decodeErr error
	got := bytesPerRun(1000, func() { _, decodeErr = DecodeMessage(payload) })
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if got > 2560 {
		t.Errorf("DecodeMessage of a 16x16 FRAME allocates %d B/op, want <= 2560", got)
	}
}

// TestAppendMessageNoAlloc: encoding a RESULT into a buffer with room
// allocates nothing, so the server's coalescing writer produces no
// per-result garbage.
func TestAppendMessageNoAlloc(t *testing.T) {
	m := &Message{Type: TypeResult, Seq: 9, Status: StatusOK, Obstacle: true, Confidence: 0.9, Uncertainty: 0.1}
	buf := make([]byte, 0, 1024)
	var err error
	allocs := testing.AllocsPerRun(1000, func() { _, err = AppendMessage(buf, m, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("AppendMessage of a RESULT allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendMessageKeepsPrefixOnError: a message that fails to encode
// leaves the messages already in the buffer intact.
func TestAppendMessageKeepsPrefixOnError(t *testing.T) {
	buf, err := AppendMessage(nil, &Message{Type: TypeWelcome}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(buf)
	buf, err = AppendMessage(buf, &Message{Type: TypeFrame, Seq: 1}, 0) // FRAME without tensor
	if err == nil || len(buf) != n {
		t.Fatalf("failed append: err %v, len %d, want an error and len %d", err, len(buf), n)
	}
	if _, err := AppendMessage(buf, &Message{Type: TypeFrame, Seq: 1, Frame: testFrame(64)}, 32); err == nil {
		t.Fatal("payload above maxPayload accepted")
	}
	m, err := DecodeMessage(buf[4:])
	if err != nil || m.Type != TypeWelcome {
		t.Fatalf("prefix after failed appends: %+v, %v", m, err)
	}
}

// TestClientReadResumesAfterPartialMessage: a read deadline that fires
// after part of a message arrived consumes nothing, and the next Read
// returns the whole message. A client that read the length prefix off
// the socket would parse mid-message bytes as the next length instead.
func TestClientReadResumesAfterPartialMessage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	result, err := AppendMessage(nil, &Message{Type: TypeResult, Seq: 7, Status: StatusOK, Obstacle: true, Confidence: 0.75}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rest := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			c, err := ln.Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			if _, err := ReadMessage(c, 0); err != nil {
				return err
			}
			if err := WriteMessage(c, &Message{Type: TypeWelcome}, 0); err != nil {
				return err
			}
			if _, err := c.Write(result[:2]); err != nil {
				return err
			}
			<-rest
			if _, err := c.Write(result[2:]); err != nil {
				return err
			}
			// Hold the connection open until the client hangs up.
			_, _ = c.Read(make([]byte, 1))
			return nil
		}()
	}()

	cl, err := Dial(ln.Addr().String(), "t", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if m, err := cl.Read(30 * time.Millisecond); !IsTimeout(err) {
		t.Fatalf("Read with 2 of %d bytes delivered: %+v, %v; want a timeout", len(result), m, err)
	}
	close(rest)
	m, err := cl.Read(2 * time.Second)
	if err != nil {
		t.Fatalf("Read after the rest arrived: %v", err)
	}
	if m.Type != TypeResult || m.Seq != 7 || !m.Obstacle || m.Confidence != 0.75 { //lint:allow(floateq) bit-exact wire round-trip
		t.Fatalf("resumed Read returned %+v", m)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// gatedConn counts the server's writes and, once armed, holds the next
// one until gate closes, recording how many messages that write carries.
type gatedConn struct {
	net.Conn
	writes atomic.Int64
	held   atomic.Int64
	armed  atomic.Bool
	gate   chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.armed.CompareAndSwap(true, false) {
		c.held.Store(int64(countMessages(p)))
		<-c.gate
	}
	return c.Conn.Write(p)
}

// countMessages counts the length-prefixed messages in p.
func countMessages(p []byte) int {
	n := 0
	for len(p) >= 4 {
		p = p[4+int(binary.LittleEndian.Uint32(p)):]
		n++
	}
	return n
}

// gatedListener hands each accepted connection to the test as a
// gatedConn.
type gatedListener struct {
	net.Listener
	conns chan *gatedConn
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	gc := &gatedConn{Conn: c, gate: make(chan struct{})}
	l.conns <- gc
	return gc, nil
}

// TestServerCoalescesQueuedResults holds the connection's writer inside a
// Write while n RESULTs are produced, then releases it: everything that
// queued meanwhile leaves in one more Write, whole and in order.
func TestServerCoalescesQueuedResults(t *testing.T) {
	const n = 100
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: ln, conns: make(chan *gatedConn, 1)}
	b := newStubBackend(1, n, 0)
	// One pump keeps submission, and so result, order equal to send order.
	s, err := Serve(Config{Backend: b, QueueCap: 2 * n, Pumps: 1}, gl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		b.Close()
	}()

	cl, err := Dial(s.Addr().String(), "t", "car0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gc := <-gl.conns
	s.mu.Lock()
	var sc *serverConn
	for c := range s.conns {
		sc = c
	}
	s.mu.Unlock()

	before := gc.writes.Load()
	gc.armed.Store(true)
	for seq := uint64(1); seq <= n; seq++ {
		if err := cl.SendFrame(seq, safety.Nominal, testFrame(16)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every RESULT sits either in the held write or on out.
	deadline := time.Now().Add(5 * time.Second)
	for gc.held.Load()+int64(len(sc.out)) != n {
		if time.Now().After(deadline) {
			t.Fatalf("results never queued: %d held, %d waiting, want %d", gc.held.Load(), len(sc.out), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gc.gate)

	for seq := uint64(1); seq <= n; seq++ {
		m, err := cl.Read(2 * time.Second)
		if err != nil {
			t.Fatalf("result %d: %v", seq, err)
		}
		if m.Type != TypeResult || m.Seq != seq || m.Status != StatusOK {
			t.Fatalf("result %d: got %+v", seq, m)
		}
	}
	if w := gc.writes.Load() - before; w > 2 {
		t.Errorf("%d queued results took %d writes, want <= 2", n, w)
	}
}
