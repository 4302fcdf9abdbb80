package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// frames splits a buffer of concatenated frames into decoded messages.
func decodeAll(t *testing.T, buf []byte) []Msg {
	t.Helper()
	var out []Msg
	for len(buf) > 0 {
		payload, rest, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		m, err := DecodeMsg(payload)
		if err != nil {
			t.Fatalf("DecodeMsg: %v", err)
		}
		out = append(out, m)
		buf = rest
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

func TestDecodeFrameErrors(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{1, 0}); !errors.Is(err, ErrFrameShort) {
		t.Fatalf("short header: %v", err)
	}
	big := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, _, err := DecodeFrame(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
	declared := binary.LittleEndian.AppendUint32(nil, 10)
	declared = append(declared, 1, 2, 3) // 3 bytes present, 10 declared
	if _, _, err := DecodeFrame(declared); !errors.Is(err, ErrFrameShort) {
		t.Fatalf("truncated payload: %v", err)
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

func TestReadFrame(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, "w1")
	stream = AppendReady(stream)
	br := bufio.NewReader(bytes.NewReader(stream))
	p1, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if m, err := DecodeMsg(p1); err != nil || m.Kind != msgHello {
		t.Fatalf("first frame: %+v %v", m, err)
	}
	p2, err := readFrame(br, p1)
	if err != nil {
		t.Fatalf("readFrame 2: %v", err)
	}
	if m, err := DecodeMsg(p2); err != nil || m.Kind != msgReady {
		t.Fatalf("second frame: %+v %v", m, err)
	}
	// Oversized length prefix rejected before allocation.
	bad := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(bad)), nil); !errors.Is(err, ErrFrameTooLarge) {
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
	buf = AppendHello(buf[:0], "worker-a")
	seed = append(seed, append([]byte(nil), buf[4:]...))
	buf = AppendCell(buf[:0], 3, 1, []byte(`{"kind":"experiment"}`))
	seed = append(seed, append([]byte(nil), buf[4:]...))
	buf = AppendResult(buf[:0], 3, 1, true, []byte(`{}`))
	seed = append(seed, append([]byte(nil), buf[4:]...))
	buf = AppendResult(buf[:0], 4, 0, false, []byte("err"))
	seed = append(seed, append([]byte(nil), buf[4:]...))
	buf = AppendTelemetry(buf[:0], []byte{0xB1, 0xF5})
	seed = append(seed, append([]byte(nil), buf[4:]...))
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
			re = binary.LittleEndian.AppendUint32(nil, uint32(1+4+2+len(m.Name)))
			re = append(re, msgHello)
			re = binary.LittleEndian.AppendUint32(re, m.Proto)
			re = binary.LittleEndian.AppendUint16(re, uint16(len(m.Name)))
			re = append(re, m.Name...)
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
		p2, rest, err := DecodeFrame(re)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded frame broken: %v (rest %d)", err, len(rest))
		}
		m2, err := DecodeMsg(p2)
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
