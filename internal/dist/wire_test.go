package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/wire"
)

// payloads splits a buffer of concatenated frames into their payloads.
func payloads(t testing.TB, buf []byte) [][]byte {
	t.Helper()
	fr := wire.NewReader(bytes.NewReader(buf), maxFrame)
	var out [][]byte
	for {
		p, err := fr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// decodeAll splits a buffer of concatenated frames into decoded messages.
func decodeAll(t *testing.T, buf []byte) []Msg {
	t.Helper()
	var out []Msg
	for _, p := range payloads(t, buf) {
		m, err := DecodeMsg(p)
		if err != nil {
			t.Fatalf("DecodeMsg: %v", err)
		}
		out = append(out, m)
	}
	return out
}

func TestWireRoundTrip(t *testing.T) {
	spec := []byte(`{"scenario":{"name":"t1/x"}}`)
	body := []byte(`{"result":null}`)
	var buf []byte
	buf = AppendHello(buf, "w1")
	buf = AppendReady(buf)
	buf = AppendCell(buf, 7, 2, spec)
	buf = AppendResult(buf, 7, 2, true, body)
	buf = AppendResult(buf, 8, 0, false, []byte("boom"))
	buf = AppendTelemetry(buf, []byte{1, 2, 3})
	buf = AppendBye(buf)

	ms := decodeAll(t, buf)
	if len(ms) != 7 {
		t.Fatalf("decoded %d messages, want 7", len(ms))
	}
	if ms[0].Kind != msgHello || ms[0].Proto != ProtocolVersion || ms[0].Name != "w1" {
		t.Fatalf("hello = %+v", ms[0])
	}
	if ms[1].Kind != msgReady {
		t.Fatalf("ready = %+v", ms[1])
	}
	if ms[2].Kind != msgCell || ms[2].ID != 7 || ms[2].Attempt != 2 || !bytes.Equal(ms[2].Payload, spec) {
		t.Fatalf("cell = %+v", ms[2])
	}
	if ms[3].Kind != msgResult || ms[3].ID != 7 || ms[3].Attempt != 2 || !ms[3].OK || !bytes.Equal(ms[3].Payload, body) {
		t.Fatalf("result = %+v", ms[3])
	}
	if ms[4].Kind != msgResult || ms[4].OK || string(ms[4].Payload) != "boom" {
		t.Fatalf("error result = %+v", ms[4])
	}
	if ms[5].Kind != msgTelemetry || !bytes.Equal(ms[5].Payload, []byte{1, 2, 3}) {
		t.Fatalf("telemetry = %+v", ms[5])
	}
	if ms[6].Kind != msgBye {
		t.Fatalf("bye = %+v", ms[6])
	}
}

func TestDecodeMsgErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":                 {},
		"unknown kind":          {'Z'},
		"hello short":           {msgHello, 1, 0},
		"hello name over-long":  append([]byte{msgHello, 1, 0, 0, 0, 255, 255}, make([]byte, 300)...),
		"hello name truncated":  {msgHello, 1, 0, 0, 0, 5, 0, 'a'},
		"ready with body":       {msgReady, 1},
		"bye with body":         {msgBye, 1},
		"cell short":            {msgCell, 1, 2, 3},
		"cell count mismatch":   append(binary.LittleEndian.AppendUint32([]byte{msgCell, 1, 0, 0, 0, 0, 0, 0, 0}, 99), 'x'),
		"result short":          {msgResult, 1},
		"result bad ok byte":    binary.LittleEndian.AppendUint32([]byte{msgResult, 1, 0, 0, 0, 0, 0, 0, 0, 7}, 0),
		"result count mismatch": append(binary.LittleEndian.AppendUint32([]byte{msgResult, 1, 0, 0, 0, 0, 0, 0, 0, 1}, 5), 'x'),
	}
	for name, payload := range cases {
		if _, err := DecodeMsg(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodeFrameErrors reads broken streams at dist's cap.
func TestDecodeFrameErrors(t *testing.T) {
	fr := func(stream []byte) *wire.Reader { return wire.NewReader(bytes.NewReader(stream), maxFrame) }
	if _, err := fr([]byte{1, 0}).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short header: %v", err)
	}
	big := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, err := fr(big).Next(); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
	declared := binary.LittleEndian.AppendUint32(nil, 10)
	declared = append(declared, 1, 2, 3) // 3 bytes present, 10 declared
	if _, err := fr(declared).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v", err)
	}
}

// TestReadFrame reads messages back to back the way both ends of a
// connection do: one reader at dist's cap, one frame per message.
func TestReadFrame(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, "w1")
	stream = AppendReady(stream)
	fr := wire.NewReader(bytes.NewReader(stream), maxFrame)
	p1, err := fr.Next()
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if m, err := DecodeMsg(p1); err != nil || m.Kind != msgHello || m.Name != "w1" {
		t.Fatalf("first frame: %+v %v", m, err)
	}
	p2, err := fr.Next()
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if m, err := DecodeMsg(p2); err != nil || m.Kind != msgReady {
		t.Fatalf("second frame: %+v %v", m, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	// Oversized length prefix rejected before allocation.
	bad := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, err := wire.NewReader(bytes.NewReader(bad), maxFrame).Next(); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversized prefix: %v", err)
	}
}

// FuzzDecodeMsg gates the wire decoder: no panic on arbitrary payloads, and
// every accepted message re-encodes to a payload that decodes identically.
func FuzzDecodeMsg(f *testing.F) {
	seed := [][]byte{
		{},
		{msgReady},
		{msgBye},
	}
	var buf []byte
	buf = AppendHello(buf, "worker-a")
	buf = AppendCell(buf, 3, 1, []byte(`{"kind":"experiment"}`))
	buf = AppendResult(buf, 3, 1, true, []byte(`{}`))
	buf = AppendResult(buf, 4, 0, false, []byte("err"))
	buf = AppendTelemetry(buf, []byte(`{"version":2}`))
	seed = append(seed, payloads(f, buf)...)
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeMsg(payload)
		if err != nil {
			return
		}
		var re []byte
		switch m.Kind {
		case msgHello:
			// AppendHello pins ProtocolVersion; re-encode by hand so a
			// fuzzed proto value round-trips for comparison.
			var start int
			re, start = wire.Begin(nil)
			re = append(re, msgHello)
			re = binary.LittleEndian.AppendUint32(re, m.Proto)
			re = binary.LittleEndian.AppendUint16(re, uint16(len(m.Name)))
			re = wire.End(append(re, m.Name...), start)
		case msgReady:
			re = AppendReady(nil)
		case msgBye:
			re = AppendBye(nil)
		case msgCell:
			re = AppendCell(nil, m.ID, m.Attempt, m.Payload)
		case msgResult:
			re = AppendResult(nil, m.ID, m.Attempt, m.OK, m.Payload)
		case msgTelemetry:
			re = AppendTelemetry(nil, m.Payload)
		default:
			t.Fatalf("accepted unknown kind %q", m.Kind)
		}
		ps := payloads(t, re)
		if len(ps) != 1 {
			t.Fatalf("re-encoded message is %d frames", len(ps))
		}
		m2, err := DecodeMsg(ps[0])
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if m2.Kind != m.Kind || m2.Proto != m.Proto || m2.Name != m.Name ||
			m2.ID != m.ID || m2.Attempt != m.Attempt || m2.OK != m.OK ||
			!bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", m, m2)
		}
	})
}
