package ingest

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/safety"
	"repro/internal/tensor"
)

// testFrame builds a small deterministic tensor.
func testFrame(n int) *tensor.Tensor {
	f := tensor.New(n)
	data := f.Data()
	for i := range data {
		data[i] = float32(i%7) * 0.25
	}
	return f
}

func TestWireRoundTrip(t *testing.T) {
	frame := testFrame(9)
	msgs := []*Message{
		{Type: TypeHello, Tenant: "acme", Vehicle: "car0"},
		{Type: TypeHello, Vehicle: "car1"}, // empty tenant is the default tenant
		{Type: TypeWelcome},
		{Type: TypeReject, Reason: ReasonConnLimit, Text: "cap"},
		{Type: TypeFrame, Seq: 42, Class: safety.Emergency, Frame: frame},
		{Type: TypeResult, Seq: 42, Status: StatusOK, Obstacle: true, Confidence: 0.93, Uncertainty: 0.12},
		{Type: TypeResult, Seq: 7, Status: StatusError, Text: "boom"},
		{Type: TypeResult, Seq: 8, Status: StatusShed},
		{Type: TypeRetryAfter, Seq: 3, Millis: 250, Reason: ReasonRateLimited},
		{Type: TypeRetryAfter, Seq: 0, Millis: 50, Reason: ReasonBackpressure},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m, 0); err != nil {
			t.Fatalf("write %d: %v", m.Type, err)
		}
		got, err := ReadMessage(&buf, 0)
		if err != nil {
			t.Fatalf("read %d: %v", m.Type, err)
		}
		if got.Type != m.Type || got.Tenant != m.Tenant || got.Vehicle != m.Vehicle ||
			got.Reason != m.Reason || got.Text != m.Text || got.Seq != m.Seq ||
			got.Class != m.Class || got.Status != m.Status || got.Obstacle != m.Obstacle ||
			got.Confidence != m.Confidence || got.Uncertainty != m.Uncertainty || got.Millis != m.Millis { //lint:allow(floateq) bit-exact round-trip through Float64bits
			t.Errorf("type %d: round-trip %+v != %+v", m.Type, got, m)
		}
		if m.Frame != nil {
			if got.Frame == nil || got.Frame.Len() != m.Frame.Len() {
				t.Fatalf("frame lost in round-trip")
			}
			for i, v := range m.Frame.Data() {
				if got.Frame.Data()[i] != v { //lint:allow(floateq) bit-exact wire round-trip
					t.Fatalf("frame pixel %d: %v != %v", i, got.Frame.Data()[i], v)
				}
			}
		}
		if buf.Len() != 0 {
			t.Errorf("type %d: %d bytes left after read", m.Type, buf.Len())
		}
	}
}

func TestWireSequentialMessages(t *testing.T) {
	var buf bytes.Buffer
	for seq := uint64(0); seq < 5; seq++ {
		if err := WriteMessage(&buf, &Message{Type: TypeFrame, Seq: seq, Class: safety.Nominal, Frame: testFrame(4)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(0); seq < 5; seq++ {
		m, err := ReadMessage(&buf, 0)
		if err != nil {
			t.Fatalf("message %d: %v", seq, err)
		}
		if m.Seq != seq {
			t.Fatalf("message order broken: got seq %d want %d", m.Seq, seq)
		}
	}
}

func TestWireRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	big := testFrame(1024)
	if err := WriteMessage(&buf, &Message{Type: TypeFrame, Seq: 1, Class: 0, Frame: big}, 64); err == nil {
		t.Error("oversize write accepted")
	}
	// A hostile length prefix is refused before any allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := ReadPayload(&buf, nil, 1024); !errors.Is(err, ErrTooLarge) {
		t.Errorf("hostile prefix: err = %v, want ErrTooLarge", err)
	}
}

func TestWireDecodeRejects(t *testing.T) {
	valid := func(m *Message) []byte {
		p, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	frame := valid(&Message{Type: TypeFrame, Seq: 1, Class: safety.Critical, Frame: testFrame(4)})
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("XXXX\x01"),
		"magic only":       []byte(wireMagic),
		"unknown type":     append([]byte(wireMagic), 0x7F),
		"truncated hello":  valid(&Message{Type: TypeHello, Tenant: "t", Vehicle: "v"})[:8],
		"truncated frame":  frame[:len(frame)-3],
		"trailing garbage": append(append([]byte{}, valid(&Message{Type: TypeWelcome})...), 0xAB),
		"bad class":        append(append([]byte(wireMagic), TypeFrame), []byte{1, 0, 0, 0, 0, 0, 0, 0, 9}...),
		"frame w/o tensor": append(append([]byte(wireMagic), TypeFrame), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}...),
	}
	for name, payload := range cases {
		if m, err := DecodeMessage(payload); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
	// Empty-vehicle HELLO is well-formed bytes but semantically invalid.
	p := valid(&Message{Type: TypeHello, Tenant: "t", Vehicle: "v"})
	p[len(p)-3] = 0 // vehicle length 1 → 0, then drop the byte
	if _, err := DecodeMessage(p[:len(p)-1]); err == nil {
		t.Error("empty vehicle accepted")
	}
}

func TestWireNameBound(t *testing.T) {
	long := strings.Repeat("x", maxName+1)
	if _, err := (&Message{Type: TypeHello, Tenant: long, Vehicle: "v"}).Encode(); err == nil {
		t.Error("oversized tenant encoded")
	}
}

func TestReasonAndStatusStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonRateLimited:  "rate-limited",
		ReasonConnLimit:    "conn-limit",
		ReasonDraining:     "draining",
		ReasonBadFrame:     "bad-frame",
		ReasonTooLarge:     "too-large",
		ReasonBackpressure: "backpressure",
		ReasonProtocol:     "protocol",
	} {
		if r.String() != want {
			t.Errorf("Reason(%d) = %q want %q", r, r.String(), want)
		}
	}
	for s, want := range map[Status]string{
		StatusOK: "ok", StatusShed: "shed", StatusError: "error", StatusQuarantined: "quarantined",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q want %q", s, s.String(), want)
		}
	}
}
