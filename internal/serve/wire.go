// Wire protocol: one internal/wire frame per message over TCP, its payload
// capped at maxFrame. Payloads:
//
//	classify request:  [type=1][id u64][n u32][n × f64]   (13 + 8n bytes)
//	classify response: [type=2][id u64][status u8][label u16][prob f32]
//
// All integers and floats are little-endian. ids are caller-chosen and
// echoed verbatim, so clients may pipeline arbitrarily many requests per
// connection and match responses out of order.
package serve

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/wire"
)

// maxFrame bounds a request payload (1 MiB ≈ a 130k-point trace —
// far beyond any fingerprinting window).
const maxFrame = 1 << 20

// Message types.
const (
	msgClassify = 1
	msgResult   = 2
)

// Response status codes.
const (
	statusOK         = 0
	statusOverloaded = 1
	statusDeadline   = 2
	statusBadRequest = 3
	statusClosed     = 4
)

// ErrBadMessage reports a malformed message payload.
var ErrBadMessage = errors.New("serve: malformed message payload")

const (
	reqHeaderLen   = 1 + 8 + 4 // type, id, count
	respPayloadLen = 1 + 8 + 1 + 2 + 4
)

// AppendRequest appends one framed classify request to dst.
func AppendRequest(dst []byte, id uint64, xs []float64) []byte {
	dst, start := wire.Begin(dst)
	dst = append(dst, msgClassify)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for _, v := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return wire.End(dst, start)
}

// DecodeRequestHeader validates a classify-request payload without
// touching its samples: the message type, and the declared sample count
// against the payload length. It returns the request id whenever the
// payload is long enough to hold one, valid or not, so a malformed
// request can be answered under its own id.
func DecodeRequestHeader(payload []byte) (id uint64, n int, err error) {
	if len(payload) >= 1+8 {
		id = binary.LittleEndian.Uint64(payload[1:])
	}
	if len(payload) < reqHeaderLen || payload[0] != msgClassify {
		return id, 0, ErrBadMessage
	}
	n = int(binary.LittleEndian.Uint32(payload[9:]))
	if len(payload) != reqHeaderLen+8*n {
		return id, 0, ErrBadMessage
	}
	return id, n, nil
}

// DecodeSamples appends the trace of a payload DecodeRequestHeader
// accepted into xs[:0], reusing xs when its capacity suffices.
func DecodeSamples(payload []byte, xs []float64) []float64 {
	n := max(0, (len(payload)-reqHeaderLen)/8)
	xs = xs[:0]
	if cap(xs) < n {
		xs = make([]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		bits := binary.LittleEndian.Uint64(payload[reqHeaderLen+8*i:])
		xs = append(xs, math.Float64frombits(bits))
	}
	return xs
}

// AppendResponse appends one framed classify response to dst.
func AppendResponse(dst []byte, id uint64, status byte, label uint16, prob float32) []byte {
	dst, start := wire.Begin(dst)
	dst = append(dst, msgResult)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint16(dst, label)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(prob))
	return wire.End(dst, start)
}

// DecodeResponse parses a classify-response payload.
func DecodeResponse(payload []byte) (id uint64, status byte, label uint16, prob float32, err error) {
	if len(payload) != respPayloadLen || payload[0] != msgResult {
		return 0, 0, 0, 0, ErrBadMessage
	}
	id = binary.LittleEndian.Uint64(payload[1:])
	status = payload[9]
	label = binary.LittleEndian.Uint16(payload[10:])
	prob = math.Float32frombits(binary.LittleEndian.Uint32(payload[12:]))
	return id, status, label, prob, nil
}

// statusError maps a Classify error onto its wire status.
func statusError(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrOverloaded):
		return statusOverloaded
	case errors.Is(err, ErrDeadlineExceeded):
		return statusDeadline
	case errors.Is(err, ErrServerClosed):
		return statusClosed
	default:
		return statusBadRequest
	}
}

// errStatus is statusError's inverse, used by clients.
func errStatus(status byte) error {
	switch status {
	case statusOK:
		return nil
	case statusOverloaded:
		return ErrOverloaded
	case statusDeadline:
		return ErrDeadlineExceeded
	case statusClosed:
		return ErrServerClosed
	default:
		return ErrBadMessage
	}
}
