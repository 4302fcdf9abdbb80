// Package dist is the distributed experiment runner: a coordinator that
// shards experiment cells (core.CellSpec) over N worker replicas and merges
// their results and telemetry into one run manifest.
//
// Wire protocol: one internal/wire frame per message over TCP, the same
// framing as internal/serve, its payload capped at maxFrame. Payloads:
//
//	hello     (worker→coord): ['H'][proto u32][n u16][n × name bytes]
//	ready     (worker→coord): ['R']                       (one idle lane)
//	cell      (coord→worker): ['C'][id u32][attempt u32][n u32][n × CellSpec JSON]
//	result    (worker→coord): ['D'][id u32][attempt u32][ok u8][n u32][n × body]
//	                          body = CellResult JSON (ok=1) | error text (ok=0)
//	telemetry (worker→coord): ['T'][one obs telemetry payload]
//	bye       (coord→worker): ['B']                       (drain and exit)
//
// Cell payloads are JSON because specs are configuration, not bulk data —
// a few hundred bytes each — and core.ParseCellSpec already rejects unknown
// fields and trailing garbage. Every declared length is validated against
// the bytes actually present before anything is sliced or allocated
// (FuzzDecodeMsg gates the decoder).
package dist

import (
	"encoding/binary"
	"errors"

	"repro/internal/wire"
)

// maxFrame bounds a message payload (8 MiB: a CellResult carries a confusion
// matrix, which at full scale is 101×101 ints of JSON).
const maxFrame = 8 << 20

// ProtocolVersion gates hello: a coordinator drops workers speaking a
// different version instead of misparsing their frames. Version 2 carries
// a bare telemetry payload in 'T'; version 1 framed it a second time.
const ProtocolVersion = 2

// Message kinds (first payload byte).
const (
	msgHello     = 'H'
	msgReady     = 'R'
	msgCell      = 'C'
	msgResult    = 'D'
	msgTelemetry = 'T'
	msgBye       = 'B'
)

// maxNameLen bounds the worker name in hello.
const maxNameLen = 256

// ErrBadMessage reports a malformed message payload. Both ends treat it as
// a fatal protocol error and drop the connection.
var ErrBadMessage = errors.New("dist: malformed message payload")

// Msg is one decoded protocol message. Which fields are meaningful depends
// on Kind; Payload aliases the decode buffer and is only valid until the
// next read into it.
type Msg struct {
	Kind    byte
	Proto   uint32 // hello
	Name    string // hello
	ID      uint32 // cell, result
	Attempt uint32 // cell, result
	OK      bool   // result
	Payload []byte // cell (spec JSON), result (body), telemetry (obs payload)
}

// AppendHello appends a framed hello to dst.
func AppendHello(dst []byte, name string) []byte {
	if len(name) > maxNameLen {
		name = name[:maxNameLen]
	}
	dst, start := wire.Begin(dst)
	dst = append(dst, msgHello)
	dst = binary.LittleEndian.AppendUint32(dst, ProtocolVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	return wire.End(append(dst, name...), start)
}

// AppendReady appends a framed ready (one idle lane) to dst.
func AppendReady(dst []byte) []byte {
	dst, start := wire.Begin(dst)
	return wire.End(append(dst, msgReady), start)
}

// AppendCell appends a framed cell assignment to dst.
func AppendCell(dst []byte, id, attempt uint32, spec []byte) []byte {
	dst, start := wire.Begin(dst)
	dst = append(dst, msgCell)
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, attempt)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(spec)))
	return wire.End(append(dst, spec...), start)
}

// AppendResult appends a framed cell result to dst. body is CellResult JSON
// when ok, the error text otherwise.
func AppendResult(dst []byte, id, attempt uint32, ok bool, body []byte) []byte {
	dst, start := wire.Begin(dst)
	dst = append(dst, msgResult)
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, attempt)
	if ok {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return wire.End(append(dst, body...), start)
}

// AppendTelemetry appends a framed telemetry message to dst. payload is
// one obs telemetry payload, carried opaquely and decoded by the
// coordinator's aggregator.
func AppendTelemetry(dst, payload []byte) []byte {
	dst, start := wire.Begin(dst)
	dst = append(dst, msgTelemetry)
	return wire.End(append(dst, payload...), start)
}

// AppendBye appends a framed bye to dst.
func AppendBye(dst []byte) []byte {
	dst, start := wire.Begin(dst)
	return wire.End(append(dst, msgBye), start)
}

// DecodeMsg parses one frame payload into a Msg. Declared lengths must
// match the bytes present exactly — trailing garbage is a protocol error,
// not padding.
func DecodeMsg(payload []byte) (Msg, error) {
	if len(payload) < 1 {
		return Msg{}, ErrBadMessage
	}
	m := Msg{Kind: payload[0]}
	body := payload[1:]
	switch m.Kind {
	case msgHello:
		if len(body) < 6 {
			return Msg{}, ErrBadMessage
		}
		m.Proto = binary.LittleEndian.Uint32(body)
		n := int(binary.LittleEndian.Uint16(body[4:]))
		if n > maxNameLen || len(body) != 6+n {
			return Msg{}, ErrBadMessage
		}
		m.Name = string(body[6:])
		return m, nil
	case msgReady, msgBye:
		if len(body) != 0 {
			return Msg{}, ErrBadMessage
		}
		return m, nil
	case msgCell:
		if len(body) < 12 {
			return Msg{}, ErrBadMessage
		}
		m.ID = binary.LittleEndian.Uint32(body)
		m.Attempt = binary.LittleEndian.Uint32(body[4:])
		n := binary.LittleEndian.Uint32(body[8:])
		if uint32(len(body)-12) != n {
			return Msg{}, ErrBadMessage
		}
		m.Payload = body[12:]
		return m, nil
	case msgResult:
		if len(body) < 13 {
			return Msg{}, ErrBadMessage
		}
		m.ID = binary.LittleEndian.Uint32(body)
		m.Attempt = binary.LittleEndian.Uint32(body[4:])
		switch body[8] {
		case 0:
		case 1:
			m.OK = true
		default:
			return Msg{}, ErrBadMessage
		}
		n := binary.LittleEndian.Uint32(body[9:])
		if uint32(len(body)-13) != n {
			return Msg{}, ErrBadMessage
		}
		m.Payload = body[13:]
		return m, nil
	case msgTelemetry:
		m.Payload = body
		return m, nil
	}
	return Msg{}, ErrBadMessage
}
