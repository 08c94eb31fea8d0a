package ingest

// client.go is the RFR1 client used by the simdrive load generator, the
// rpnctl probes, and the e2e tests. It is deliberately thin: a dialed
// connection, a HELLO/WELCOME handshake with typed rejection, a locked
// writer (frames and reads may run from different goroutines), and a
// deadline-bounded reader that consumes only whole messages.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/safety"
	"repro/internal/tensor"
)

// RejectError is the typed admission refusal a client receives.
type RejectError struct {
	Reason Reason
	Text   string
}

func (e *RejectError) Error() string {
	if e.Text == "" {
		return fmt.Sprintf("ingest: rejected: %s", e.Reason)
	}
	return fmt.Sprintf("ingest: rejected: %s (%s)", e.Reason, e.Text)
}

// clientReadBuf is the client's read buffer size, and so the largest
// message it accepts: everything a server sends is a few hundred bytes
// (a RESULT or REJECT with a maxName-bounded text is under 300).
const clientReadBuf = 1024

// Client is one vehicle's connection to the front end.
type Client struct {
	c          net.Conn
	r          *bufio.Reader
	maxPayload int

	// wmu serializes writers and guards wbuf, the reused encode buffer;
	// the read side is single-consumer by convention (one goroutine calls
	// Read).
	wmu  sync.Mutex
	wbuf []byte
}

// Dial connects, performs the HELLO handshake, and waits for the
// admission verdict. A REJECT surfaces as *RejectError.
func Dial(addr, tenant, vehicle string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ingest: dial %s: %w", addr, err)
	}
	cl := &Client{c: c, r: bufio.NewReaderSize(c, clientReadBuf), maxPayload: DefaultMaxPayload}
	deadline := now().Add(timeout)
	if err := c.SetDeadline(deadline); err != nil {
		_ = c.Close() //lint:allow(errdrop) handshake never started
		return nil, err
	}
	if err := WriteMessage(c, &Message{Type: TypeHello, Tenant: tenant, Vehicle: vehicle}, cl.maxPayload); err != nil {
		_ = c.Close() //lint:allow(errdrop) handshake failed; nothing buffered
		return nil, err
	}
	m, err := cl.next()
	if err != nil {
		_ = c.Close() //lint:allow(errdrop) handshake failed; nothing buffered
		return nil, fmt.Errorf("ingest: handshake: %w", err)
	}
	switch m.Type {
	case TypeWelcome:
		// Clear the handshake deadline; per-call deadlines take over.
		if err := c.SetDeadline(time.Time{}); err != nil {
			_ = c.Close() //lint:allow(errdrop) socket already unusable
			return nil, err
		}
		return cl, nil
	case TypeReject:
		_ = c.Close() //lint:allow(errdrop) server already rejected; nothing buffered
		return nil, &RejectError{Reason: m.Reason, Text: m.Text}
	default:
		_ = c.Close() //lint:allow(errdrop) protocol error; nothing buffered
		return nil, fmt.Errorf("ingest: handshake: unexpected message type %d", m.Type)
	}
}

// SendFrame submits one frame with one Write, encoded into a buffer the
// client reuses. Safe for concurrent use with other senders; results
// arrive via Read on the reader goroutine.
func (cl *Client) SendFrame(seq uint64, class safety.Criticality, frame *tensor.Tensor) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	buf, err := AppendMessage(cl.wbuf[:0], &Message{Type: TypeFrame, Seq: seq, Class: class, Frame: frame}, cl.maxPayload)
	if err != nil {
		return err
	}
	cl.wbuf = buf
	if _, err := cl.c.Write(buf); err != nil {
		return fmt.Errorf("ingest: write message: %w", err)
	}
	return nil
}

// Read returns the next server message, waiting at most timeout
// (0: block indefinitely). A timeout consumes nothing: bytes of a message
// that arrived only in part stay buffered, and a later Read returns the
// whole message.
func (cl *Client) Read(timeout time.Duration) (*Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = now().Add(timeout)
	}
	if err := cl.c.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	return cl.next()
}

// next decodes the next whole message from the read buffer, reading from
// the socket until it is complete, and only then consumes its bytes.
func (cl *Client) next() (*Message, error) {
	hdr, err := cl.r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > cl.r.Size()-4 {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, cl.r.Size()-4)
	}
	msg, err := cl.r.Peek(4 + n)
	if err != nil {
		return nil, err
	}
	m, err := DecodeMessage(msg[4:])
	_, _ = cl.r.Discard(4 + n) //lint:allow(errdrop) cannot fail: Peek just buffered these bytes
	return m, err
}

// IsTimeout reports whether a Read error was the deadline (no message
// arrived), as opposed to a closed or broken connection.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close hangs up.
func (cl *Client) Close() error { return cl.c.Close() }
