package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/wire"
)

// payloadOf reads the one frame an encoder wrote.
func payloadOf(t testing.TB, frame []byte) []byte {
	t.Helper()
	fr := wire.NewReader(bytes.NewReader(frame), maxFrame)
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the frame: %v, want io.EOF", err)
	}
	return payload
}

func TestRequestRoundTrip(t *testing.T) {
	xs := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.NaN()}
	payload := payloadOf(t, AppendRequest(nil, 42, xs))
	id, n, err := DecodeRequestHeader(payload)
	if err != nil || id != 42 || n != len(xs) {
		t.Fatalf("DecodeRequestHeader: id=%d n=%d err=%v", id, n, err)
	}
	got := DecodeSamples(payload, nil)
	if len(got) != len(xs) {
		t.Fatalf("len %d != %d", len(got), len(xs))
	}
	for i := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("sample %d: %v != %v", i, got[i], xs[i])
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	id, status, label, prob, err := DecodeResponse(payloadOf(t, AppendResponse(nil, 7, statusDeadline, 3, 0.625)))
	if err != nil || id != 7 || status != statusDeadline || label != 3 || prob != 0.625 {
		t.Fatalf("got id=%d status=%d label=%d prob=%v err=%v", id, status, label, prob, err)
	}
	if !errors.Is(errStatus(status), ErrDeadlineExceeded) {
		t.Fatalf("errStatus(%d) = %v", status, errStatus(status))
	}
}

// TestDecodeFrameRejects reads serve streams at the caps its two ends use:
// the daemon's maxFrame and the client's one response payload.
func TestDecodeFrameRejects(t *testing.T) {
	overCap := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	cases := []struct {
		name   string
		stream []byte
		limit  uint32
		want   error
	}{
		{"short prefix", []byte{1, 2}, maxFrame, io.ErrUnexpectedEOF},
		// Oversized declared lengths are refused before any payload is read.
		{"one over the daemon cap", append(overCap, make([]byte, 64)...), maxFrame, wire.ErrTooLarge},
		{"huge length", []byte{0xff, 0xff, 0xff, 0xff}, maxFrame, wire.ErrTooLarge},
		// Declared length beyond the bytes sent.
		{"truncated request", AppendRequest(nil, 1, []float64{1, 2, 3})[:10], maxFrame, io.ErrUnexpectedEOF},
		// A client refuses anything longer than a response.
		{"request at the client cap", AppendRequest(nil, 1, []float64{1}), respPayloadLen, wire.ErrTooLarge},
	}
	for _, c := range cases {
		if _, err := wire.NewReader(bytes.NewReader(c.stream), c.limit).Next(); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

func TestStatusMappingInverts(t *testing.T) {
	for _, err := range []error{nil, ErrOverloaded, ErrDeadlineExceeded, ErrServerClosed} {
		if got := errStatus(statusError(err)); !errors.Is(got, err) && !(err == nil && got == nil) {
			t.Fatalf("status round-trip of %v gave %v", err, got)
		}
	}
}

// FuzzFrameDecode hammers the payload decoders: they must reject any
// inconsistent payload with an error — never panic, and never size
// storage from an attacker-declared count that the payload cannot back.
// A request header that validates must decode to samples that re-encode
// to the same payload byte for byte, and a rejected one must still echo
// the id its payload holds.
func FuzzFrameDecode(f *testing.F) {
	f.Add(payloadOf(f, AppendRequest(nil, 1, []float64{1, 2, 3})))
	f.Add(payloadOf(f, AppendResponse(nil, 2, statusOK, 1, 0.5)))
	f.Add([]byte{})
	f.Add([]byte{msgClassify, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // 4 G samples declared
	f.Add(payloadOf(f, AppendRequest(nil, 9, nil)))
	f.Add(payloadOf(f, AppendRequest(nil, 3, []float64{1, 2, 3}))[:11])

	f.Fuzz(func(t *testing.T, payload []byte) {
		id, n, err := DecodeRequestHeader(payload)
		if err == nil {
			// A successful decode must be backed byte-for-byte.
			if len(payload) != reqHeaderLen+8*n {
				t.Fatalf("request header length mismatch: %d bytes for %d samples", len(payload), n)
			}
			xs := DecodeSamples(payload, nil)
			if len(xs) != n {
				t.Fatalf("decoded %d samples, header declares %d", len(xs), n)
			}
			if again := payloadOf(t, AppendRequest(nil, id, xs)); !bytes.Equal(again, payload) {
				t.Fatalf("re-encoded request differs from its payload")
			}
		} else if len(payload) >= 1+8 && id != binary.LittleEndian.Uint64(payload[1:]) {
			t.Fatalf("rejected request answered under id %d, payload holds %d",
				id, binary.LittleEndian.Uint64(payload[1:]))
		}
		if _, status, _, _, err := DecodeResponse(payload); err == nil {
			_ = errStatus(status) // must be total
		}
	})
}
