// Telemetry payloads: one source process's registry snapshot and per-cell
// manifest rows, encoded as JSON, the same encoding /debug/vars,
// metrics.json and run manifests use for a Snapshot. A payload is the unit
// the /debug/telemetry endpoint serves, a dist worker sends in its 'T'
// message, and the Aggregator consumes. It is bare: its carrier (an HTTP
// body, a dist frame) delimits it, and it is at most MaxTelemetrySize
// bytes.
//
// Frames carry *absolute* cumulative values, not deltas, plus a sequence
// number: re-ingesting a frame is idempotent (the aggregator keeps the
// latest frame per source), which survives dropped or duplicated frames
// where delta streams would drift. Map keys marshal sorted, so the same
// frame always encodes to the same bytes.
package obs

import (
	"encoding/json"
	"errors"
	"fmt"
)

// TelemetryVersion is the payload format version this build emits.
// Decoders reject any other version rather than misread it. Version 1 was
// a binary encoding; version 2 is JSON.
const TelemetryVersion = 2

// MaxTelemetrySize bounds an encoded telemetry payload.
const MaxTelemetrySize = 4 << 20

// Telemetry codec errors.
var (
	ErrTelemetryTooLarge = errors.New("obs: telemetry payload exceeds 4 MiB limit")
	ErrTelemetryBad      = errors.New("obs: malformed telemetry payload")
)

// TelemetryFrame is one source's telemetry export: its registry snapshot
// (absolute values) and any per-cell manifest rows it has produced.
// Source names the producing process; Seq increases per export so the
// aggregator can keep the newest frame per source.
type TelemetryFrame struct {
	Version int           `json:"version"`
	Seq     uint64        `json:"seq"`
	Source  string        `json:"source"`
	Metrics Snapshot      `json:"metrics"`
	Cells   []CellSummary `json:"cells,omitempty"`
}

// FrameFromSnapshot builds a frame around an already-captured snapshot.
func FrameFromSnapshot(source string, seq uint64, snap Snapshot) *TelemetryFrame {
	return &TelemetryFrame{Version: TelemetryVersion, Seq: seq, Source: source, Metrics: snap}
}

// ExportFrame snapshots reg into a frame.
func ExportFrame(source string, seq uint64, reg *Registry) *TelemetryFrame {
	return FrameFromSnapshot(source, seq, reg.Snapshot())
}

// AppendTelemetryFrame appends f's payload, stamped with TelemetryVersion,
// to dst. A payload over MaxTelemetrySize is ErrTelemetryTooLarge and
// leaves dst unchanged.
func AppendTelemetryFrame(dst []byte, f *TelemetryFrame) ([]byte, error) {
	v := *f
	v.Version = TelemetryVersion
	b, err := json.Marshal(&v)
	if err != nil {
		return dst, err
	}
	if len(b) > MaxTelemetrySize {
		return dst, ErrTelemetryTooLarge
	}
	return append(dst, b...), nil
}

// DecodeTelemetryFrame parses one telemetry payload. A payload over
// MaxTelemetrySize is ErrTelemetryTooLarge. One that is not a JSON frame
// of TelemetryVersion, or that has a histogram whose counts do not match
// its bounds, is ErrTelemetryBad.
func DecodeTelemetryFrame(payload []byte) (*TelemetryFrame, error) {
	if len(payload) > MaxTelemetrySize {
		return nil, ErrTelemetryTooLarge
	}
	var f TelemetryFrame
	if err := json.Unmarshal(payload, &f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTelemetryBad, err)
	}
	if f.Version != TelemetryVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrTelemetryBad, f.Version, TelemetryVersion)
	}
	// Quantile indexes Counts by Bounds, so a peer's histogram must carry
	// one count per bucket plus the overflow bucket.
	for name, h := range f.Metrics.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return nil, fmt.Errorf("%w: histogram %q has %d counts for %d bounds",
				ErrTelemetryBad, name, len(h.Counts), len(h.Bounds))
		}
	}
	for name, w := range f.Metrics.Windows {
		if w.Hist != nil && len(w.Hist.Counts) != len(w.Hist.Bounds)+1 {
			return nil, fmt.Errorf("%w: window %q has %d counts for %d bounds",
				ErrTelemetryBad, name, len(w.Hist.Counts), len(w.Hist.Bounds))
		}
	}
	return &f, nil
}
