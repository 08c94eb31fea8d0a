// Package ingest is the fleet's network front end: a stdlib-only,
// length-prefixed TCP protocol (and an HTTP handler variant) that accepts
// concurrent frame streams from remote vehicles and feeds them to the
// fleet dispatcher.
//
// Robustness is the design center, in the paper's sense of graceful
// degradation under pressure: per-tenant token-bucket rate limits and
// connection caps reject at admission time with a typed reason; accepted
// frames land in bounded per-criticality queues whose load-shedder drops
// the lowest safety class first (the budget governor's ranking, reused);
// backpressure reaches clients as explicit RETRY-AFTER frames; idle
// connections are reaped by read deadlines; shutdown drains — stop
// accepting, flush the queues, deliver every accepted frame's result —
// under a context-bound deadline. The wire fault point (fault.Injector
// OnWire) lets chaos drills sever connections, trickle reads slow-loris
// style, and garble payloads at the network layer.
//
// This file is the RFR1 wire format. A message is a uint32 little-endian
// length prefix followed by that many payload bytes; the payload opens
// with the 4-byte magic "RFR1" and a type byte:
//
//	HELLO       tenant and vehicle identity; opens every connection
//	WELCOME     the server's admission grant
//	REJECT      typed admission refusal (connection- or frame-level)
//	FRAME       seq, safety class, and an RSNT-encoded sensor frame
//	RESULT      one FRAME's outcome: served, shed, error, quarantined
//	RETRY-AFTER typed backpressure: when to retry, and why
//
// Strings are uint16-length-prefixed UTF-8 (bounded by maxName); floats
// are IEEE-754 bits, little-endian like every integer. The frame tensor
// rides in the tensor package's RSNT binary format, whose reader already
// bounds rank, element count, and per-read allocation — ReadPayload adds
// the outer payload bound on top, so a hostile length prefix cannot force
// an allocation larger than the configured maximum.
//
// Decode path: the server reads each connection through a bufio.Reader,
// reads every payload into one reused per-connection buffer
// (ReadPayload), and DecodeMessage copies out what it keeps; a FRAME's
// tensor is decoded by tensor.ReadFrom, which allocates in proportion to
// the frame (about twice its bytes), never to a fixed chunk or to the
// header's claim. Encode path: AppendMessage appends a framed message
// (length prefix, payload, RSNT tensor via Tensor.AppendBinary) to a
// caller's buffer, so the server's writer coalesces every message waiting
// for a connection into one Write and the client reuses one buffer per
// SendFrame. The client consumes only whole messages: it peeks the length
// and the body in a small bufio.Reader and discards them once decoded, so
// a read deadline that fires mid-message loses nothing.
package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/safety"
	"repro/internal/tensor"
)

const (
	// wireMagic opens every RFR1 payload.
	wireMagic = "RFR1"
	// DefaultMaxPayload bounds one message's payload bytes unless the
	// server or client is configured otherwise: generous for any real
	// frame (a 64×64 float32 frame is ~16 KiB), small enough that a
	// hostile length prefix cannot balloon memory.
	DefaultMaxPayload = 1 << 20
	// maxName bounds every wire string: the tenant and vehicle
	// identifiers and a REJECT's or RESULT's Text (the server clips error
	// text to it).
	maxName = 256
)

// Message types.
const (
	// TypeHello is the client's opening identity message.
	TypeHello byte = 1
	// TypeWelcome is the server's admission grant.
	TypeWelcome byte = 2
	// TypeReject is a typed refusal; at the connection level it precedes a
	// close, at the frame level it answers one FRAME.
	TypeReject byte = 3
	// TypeFrame carries one sensor frame with its safety class.
	TypeFrame byte = 4
	// TypeResult answers one FRAME with its outcome.
	TypeResult byte = 5
	// TypeRetryAfter is typed backpressure: the client should pause for
	// the carried duration. Seq 0 is advisory (queue pressure); a nonzero
	// seq answers that FRAME, which was not accepted.
	TypeRetryAfter byte = 6
)

// Reason is the typed cause carried by REJECT and RETRY-AFTER messages.
type Reason uint8

// Reject / retry reasons.
const (
	// ReasonNone is the zero reason (never sent).
	ReasonNone Reason = 0
	// ReasonRateLimited: the tenant's token bucket is empty.
	ReasonRateLimited Reason = 1
	// ReasonConnLimit: the tenant is at its connection cap.
	ReasonConnLimit Reason = 2
	// ReasonDraining: the server is shutting down and accepts no new work.
	ReasonDraining Reason = 3
	// ReasonBadFrame: the message failed to decode.
	ReasonBadFrame Reason = 4
	// ReasonTooLarge: the payload exceeded the server's maximum.
	ReasonTooLarge Reason = 5
	// ReasonBackpressure: advisory queue pressure (RETRY-AFTER seq 0).
	ReasonBackpressure Reason = 6
	// ReasonProtocol: the peer broke message ordering (no HELLO, HELLO
	// twice, an unexpected type).
	ReasonProtocol Reason = 7
)

// String returns the reason's metric label ("rate-limited", …), the same
// string rpn_ingest_rejected_total series carry.
func (r Reason) String() string {
	switch r {
	case ReasonRateLimited:
		return "rate-limited"
	case ReasonConnLimit:
		return "conn-limit"
	case ReasonDraining:
		return "draining"
	case ReasonBadFrame:
		return "bad-frame"
	case ReasonTooLarge:
		return "too-large"
	case ReasonBackpressure:
		return "backpressure"
	case ReasonProtocol:
		return "protocol"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Status is a RESULT message's outcome code.
type Status uint8

// Result statuses.
const (
	// StatusOK: the frame was served; Detection fields are valid.
	StatusOK Status = 0
	// StatusShed: the load-shedder dropped the frame under overload.
	StatusShed Status = 1
	// StatusError: the backend failed the frame; Text carries the error.
	StatusError Status = 2
	// StatusQuarantined: the frame's instance is fenced by the watchdog.
	StatusQuarantined Status = 3
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusShed:
		return "shed"
	case StatusError:
		return "error"
	case StatusQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Message is one decoded RFR1 message. Which fields are meaningful
// depends on Type; unused fields are zero.
type Message struct {
	// Type is the message type (TypeHello…TypeRetryAfter).
	Type byte
	// Tenant and Vehicle are the HELLO identity strings.
	Tenant  string
	Vehicle string
	// Reason types a REJECT or RETRY-AFTER.
	Reason Reason
	// Text is a REJECT's human-readable detail or a RESULT's error string.
	Text string
	// Seq is the client-chosen frame sequence number (FRAME, RESULT,
	// RETRY-AFTER; 0 in an advisory RETRY-AFTER).
	Seq uint64
	// Class is a FRAME's safety class.
	Class safety.Criticality
	// Frame is a FRAME's sensor tensor.
	Frame *tensor.Tensor
	// Status is a RESULT's outcome.
	Status Status
	// Obstacle, Confidence, Uncertainty are a StatusOK RESULT's detection.
	Obstacle    bool
	Confidence  float64
	Uncertainty float64
	// Millis is a RETRY-AFTER's suggested pause in milliseconds.
	Millis uint32
}

// appendString appends a uint16-length-prefixed string.
func appendString(buf []byte, s string) ([]byte, error) {
	if len(s) > maxName {
		return nil, fmt.Errorf("ingest: string %d bytes exceeds %d", len(s), maxName)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

// Encode renders the message payload (magic, type, body) without the
// outer length prefix.
func (m *Message) Encode() ([]byte, error) {
	return m.appendPayload(make([]byte, 0, 64))
}

// appendPayload appends the message payload (magic, type, body) to buf.
func (m *Message) appendPayload(buf []byte) ([]byte, error) {
	buf = append(buf, wireMagic...)
	buf = append(buf, m.Type)
	var err error
	switch m.Type {
	case TypeHello:
		if buf, err = appendString(buf, m.Tenant); err != nil {
			return nil, err
		}
		if buf, err = appendString(buf, m.Vehicle); err != nil {
			return nil, err
		}
	case TypeWelcome:
		// Empty body.
	case TypeReject:
		buf = append(buf, byte(m.Reason))
		if buf, err = appendString(buf, m.Text); err != nil {
			return nil, err
		}
	case TypeFrame:
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		if m.Class < 0 || int(m.Class) >= safety.NumClasses {
			return nil, fmt.Errorf("ingest: encode: bad safety class %d", m.Class)
		}
		buf = append(buf, byte(m.Class))
		if m.Frame == nil {
			return nil, fmt.Errorf("ingest: encode: FRAME without tensor")
		}
		if buf, err = m.Frame.AppendBinary(buf); err != nil {
			return nil, err
		}
	case TypeResult:
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = append(buf, byte(m.Status))
		if m.Obstacle {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Confidence))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Uncertainty))
		if buf, err = appendString(buf, m.Text); err != nil {
			return nil, err
		}
	case TypeRetryAfter:
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, m.Millis)
		buf = append(buf, byte(m.Reason))
	default:
		return nil, fmt.Errorf("ingest: encode: unknown message type %d", m.Type)
	}
	return buf, nil
}

// AppendMessage appends one framed message — length prefix plus payload —
// to buf and returns the extended slice. On error buf comes back with its
// original length, so a caller batching messages into one buffer keeps
// everything appended before the failure.
func AppendMessage(buf []byte, m *Message, maxPayload int) ([]byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	start := len(buf)
	out, err := m.appendPayload(append(buf, 0, 0, 0, 0))
	if err != nil {
		return buf[:start], err
	}
	n := len(out) - start - 4
	if n > maxPayload {
		return buf[:start], fmt.Errorf("ingest: payload %d bytes exceeds maximum %d", n, maxPayload)
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// WriteMessage frames and writes one message: length prefix plus payload
// in a single Write call, so concurrent writers serialized by a lock never
// interleave partial messages.
func WriteMessage(w io.Writer, m *Message, maxPayload int) error {
	buf, err := AppendMessage(nil, m, maxPayload)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("ingest: write message: %w", err)
	}
	return nil
}

// ErrTooLarge reports a length prefix above the configured maximum. The
// server answers it with REJECT too-large; anything else wrapping it is a
// protocol error.
var ErrTooLarge = fmt.Errorf("ingest: message exceeds maximum payload")

// ReadPayload reads one message's raw payload bytes (length prefix
// stripped, magic still in place) into buf when it has room, else into a
// fresh slice, and returns them. The server reads payloads raw so the wire
// fault point can corrupt them before decoding, exactly where real line
// noise would.
func ReadPayload(r io.Reader, buf []byte, maxPayload int) ([]byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > uint32(maxPayload) {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxPayload)
	}
	if int(n) <= cap(buf) {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("ingest: read payload: %w", err)
	}
	return buf, nil
}

// byteCursor walks a payload with explicit bounds checks; every decode
// error is typed, never a panic (slice indexing is pre-checked).
type byteCursor struct {
	buf []byte
	off int
}

func (c *byteCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.buf) {
		return nil, fmt.Errorf("ingest: truncated message (need %d bytes at offset %d of %d)", n, c.off, len(c.buf))
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *byteCursor) u8() (byte, error) {
	b, err := c.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *byteCursor) u16() (uint16, error) {
	b, err := c.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *byteCursor) u32() (uint32, error) {
	b, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *byteCursor) u64() (uint64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *byteCursor) str() (string, error) {
	n, err := c.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxName {
		return "", fmt.Errorf("ingest: string %d bytes exceeds %d", n, maxName)
	}
	b, err := c.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodeMessage decodes one payload (as returned by ReadPayload) into a
// Message. Trailing bytes after a complete body are a protocol error —
// a frame whose tensor under-consumes the payload is garbled, not short.
func DecodeMessage(payload []byte) (*Message, error) {
	c := &byteCursor{buf: payload}
	mg, err := c.bytes(len(wireMagic))
	if err != nil {
		return nil, err
	}
	if string(mg) != wireMagic {
		return nil, fmt.Errorf("ingest: bad magic %q", mg)
	}
	t, err := c.u8()
	if err != nil {
		return nil, err
	}
	m := &Message{Type: t}
	switch t {
	case TypeHello:
		if m.Tenant, err = c.str(); err != nil {
			return nil, err
		}
		if m.Vehicle, err = c.str(); err != nil {
			return nil, err
		}
		if m.Vehicle == "" {
			return nil, fmt.Errorf("ingest: HELLO with empty vehicle")
		}
	case TypeWelcome:
		// Empty body.
	case TypeReject:
		r, err := c.u8()
		if err != nil {
			return nil, err
		}
		m.Reason = Reason(r)
		if m.Text, err = c.str(); err != nil {
			return nil, err
		}
	case TypeFrame:
		if m.Seq, err = c.u64(); err != nil {
			return nil, err
		}
		cl, err := c.u8()
		if err != nil {
			return nil, err
		}
		if int(cl) >= safety.NumClasses {
			return nil, fmt.Errorf("ingest: bad safety class %d", cl)
		}
		m.Class = safety.Criticality(cl)
		rest, err := c.bytes(len(c.buf) - c.off)
		if err != nil {
			return nil, err
		}
		rd := &sliceReader{buf: rest}
		frame := &tensor.Tensor{}
		if _, err := frame.ReadFrom(rd); err != nil {
			return nil, fmt.Errorf("ingest: frame tensor: %w", err)
		}
		if rd.off != len(rest) {
			return nil, fmt.Errorf("ingest: %d trailing bytes after frame tensor", len(rest)-rd.off)
		}
		m.Frame = frame
		return m, nil
	case TypeResult:
		if m.Seq, err = c.u64(); err != nil {
			return nil, err
		}
		st, err := c.u8()
		if err != nil {
			return nil, err
		}
		m.Status = Status(st)
		ob, err := c.u8()
		if err != nil {
			return nil, err
		}
		m.Obstacle = ob != 0
		cf, err := c.u64()
		if err != nil {
			return nil, err
		}
		m.Confidence = math.Float64frombits(cf)
		un, err := c.u64()
		if err != nil {
			return nil, err
		}
		m.Uncertainty = math.Float64frombits(un)
		if m.Text, err = c.str(); err != nil {
			return nil, err
		}
	case TypeRetryAfter:
		if m.Seq, err = c.u64(); err != nil {
			return nil, err
		}
		if m.Millis, err = c.u32(); err != nil {
			return nil, err
		}
		r, err := c.u8()
		if err != nil {
			return nil, err
		}
		m.Reason = Reason(r)
	default:
		return nil, fmt.Errorf("ingest: unknown message type %d", t)
	}
	if c.off != len(c.buf) {
		return nil, fmt.Errorf("ingest: %d trailing bytes after message body", len(c.buf)-c.off)
	}
	return m, nil
}

// sliceReader is a minimal io.Reader over a byte slice that tracks its
// offset, so DecodeMessage can reject under-consumed frame payloads.
type sliceReader struct {
	buf []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

// ReadMessage reads and decodes one framed message.
func ReadMessage(r io.Reader, maxPayload int) (*Message, error) {
	payload, err := ReadPayload(r, nil, maxPayload)
	if err != nil {
		return nil, err
	}
	return DecodeMessage(payload)
}
