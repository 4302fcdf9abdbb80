// Telemetry wire format: a versioned binary payload carrying a registry
// snapshot, per-cell manifest rows, and a span batch from one source
// process — the unit the /debug/telemetry endpoint serves, a dist worker
// sends in its 'T' message, and the Aggregator consumes. The payload is
// bare: its carrier (an HTTP body, a dist frame) delimits it, and it is at
// most MaxTelemetrySize bytes. Layout:
//
//	magic u16, version u8, flags u8 (0)
//	seq u64
//	source string (u16 len + bytes)
//	counters:   u32 n, n × (name, i64)
//	gauges:     u32 n, n × (name, f64 bits)
//	histograms: u32 n, n × (name, hist)
//	windows:    u32 n, n × (name, i64 window_ms, i64 count, f64 rate,
//	                        u8 hasHist, [hist])
//	cells:      u32 n, n × (u32 len + CellSummary JSON)
//	spans:      u32 n, n × (u32 len + SpanRecord JSON)
//
//	hist = u32 nb, nb × f64 bounds, (nb+1) × i64 counts, i64 count, f64 sum
//
// Frames carry *absolute* cumulative values, not deltas, plus a sequence
// number: re-ingesting a frame is idempotent (the aggregator keeps the
// latest frame per source), which survives dropped or duplicated frames
// where delta streams would drift. Every declared count is validated
// against the bytes actually present before anything is allocated, so a
// hostile length or count can never drive allocation; FuzzTelemetryDecode
// enforces it.
package obs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"sort"
)

// TelemetryVersion is the frame format version this build emits. Decoders
// reject frames from a newer major format rather than misparse them.
const TelemetryVersion = 1

// MaxTelemetrySize bounds an encoded telemetry payload.
const MaxTelemetrySize = 4 << 20

const (
	telemetryMagic   = 0xB1F5 // "bigger fish"
	maxTelemetryName = 256
	maxHistBounds    = 4096
	maxJSONEntry     = 1 << 20
)

// Telemetry codec errors.
var (
	ErrTelemetryTooLarge = errors.New("obs: telemetry payload exceeds 4 MiB limit")
	ErrTelemetryBad      = errors.New("obs: malformed telemetry payload")
)

// TelemetryFrame is one source's telemetry export: its registry snapshot
// (absolute values), any per-cell manifest rows it has produced, and a
// span batch. Source names the producing process; Seq increases per
// export so the aggregator can keep the newest frame per source.
type TelemetryFrame struct {
	Version int
	Seq     uint64
	Source  string
	Metrics Snapshot
	Cells   []CellSummary
	Spans   []SpanRecord
}

// FrameFromSnapshot builds a frame around an already-captured snapshot.
func FrameFromSnapshot(source string, seq uint64, snap Snapshot) *TelemetryFrame {
	return &TelemetryFrame{Version: TelemetryVersion, Seq: seq, Source: source, Metrics: snap}
}

// ExportFrame snapshots reg into a frame. A non-nil tracer contributes its
// recorded spans (bounded by the tracer's own capacity).
func ExportFrame(source string, seq uint64, reg *Registry, tr *Tracer) *TelemetryFrame {
	f := FrameFromSnapshot(source, seq, reg.Snapshot())
	if tr != nil {
		f.Spans = tr.Records()
	}
	return f
}

// sortedKeys returns map keys in sorted order so encoding is
// deterministic: the same snapshot always yields byte-identical frames.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendHist(dst []byte, h HistogramSnapshot) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Bounds)))
	for _, b := range h.Bounds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b))
	}
	// Counts always has len(Bounds)+1 entries in a well-formed snapshot;
	// encode exactly that many (zero-filling a short slice) so the shape
	// is implied by nb and needs no second count field.
	for i := 0; i <= len(h.Bounds); i++ {
		var c int64
		if i < len(h.Counts) {
			c = h.Counts[i]
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Count))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Sum))
}

// AppendTelemetryFrame appends f's encoded payload to dst. It errors
// (returning dst unchanged) if a name exceeds maxTelemetryName, a
// histogram exceeds maxHistBounds, or the payload would exceed
// MaxTelemetrySize.
func AppendTelemetryFrame(dst []byte, f *TelemetryFrame) ([]byte, error) {
	p := dst
	p = binary.LittleEndian.AppendUint16(p, telemetryMagic)
	p = append(p, byte(TelemetryVersion), 0)
	p = binary.LittleEndian.AppendUint64(p, f.Seq)
	if len(f.Source) > maxTelemetryName {
		return dst, ErrTelemetryBad
	}
	p = appendString(p, f.Source)

	m := f.Metrics
	for _, k := range sortedKeys(m.Counters) {
		if len(k) > maxTelemetryName {
			return dst, ErrTelemetryBad
		}
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(m.Counters)))
	for _, k := range sortedKeys(m.Counters) {
		p = appendString(p, k)
		p = binary.LittleEndian.AppendUint64(p, uint64(m.Counters[k]))
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(m.Gauges)))
	for _, k := range sortedKeys(m.Gauges) {
		if len(k) > maxTelemetryName {
			return dst, ErrTelemetryBad
		}
		p = appendString(p, k)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(m.Gauges[k]))
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(m.Histograms)))
	for _, k := range sortedKeys(m.Histograms) {
		h := m.Histograms[k]
		if len(k) > maxTelemetryName || len(h.Bounds) > maxHistBounds {
			return dst, ErrTelemetryBad
		}
		p = appendString(p, k)
		p = appendHist(p, h)
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(m.Windows)))
	for _, k := range sortedKeys(m.Windows) {
		w := m.Windows[k]
		if len(k) > maxTelemetryName || (w.Hist != nil && len(w.Hist.Bounds) > maxHistBounds) {
			return dst, ErrTelemetryBad
		}
		p = appendString(p, k)
		p = binary.LittleEndian.AppendUint64(p, uint64(w.WindowMS))
		p = binary.LittleEndian.AppendUint64(p, uint64(w.Count))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(w.Rate))
		if w.Hist == nil {
			p = append(p, 0)
		} else {
			p = append(p, 1)
			p = appendHist(p, *w.Hist)
		}
	}
	var err error
	if p, err = appendJSONSection(p, len(f.Cells), func(i int) any { return f.Cells[i] }); err != nil {
		return dst, err
	}
	if p, err = appendJSONSection(p, len(f.Spans), func(i int) any { return f.Spans[i] }); err != nil {
		return dst, err
	}

	if len(p)-len(dst) > MaxTelemetrySize {
		return dst, ErrTelemetryTooLarge
	}
	return p, nil
}

func appendJSONSection(dst []byte, n int, item func(i int) any) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		b, err := json.Marshal(item(i))
		if err != nil {
			return dst, err
		}
		if len(b) > maxJSONEntry {
			return dst, ErrTelemetryTooLarge
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst, nil
}

// wireReader is a bounds-checked cursor over a frame payload. Every read
// validates against the bytes remaining; the first failure sticks.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrTelemetryBad
	}
}

func (r *wireReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.remaining() < n {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *wireReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) str() string {
	n := int(r.u16())
	if n > maxTelemetryName {
		r.fail()
		return ""
	}
	return string(r.bytes(n))
}

// count reads a section's entry count and validates it against the bytes
// remaining at a conservative minimum entry size, so a forged count can
// never drive the per-entry loop (or its allocations) past the payload.
func (r *wireReader) count(minEntry int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minEntry > r.remaining() {
		r.fail()
		return 0
	}
	return n
}

func (r *wireReader) hist() HistogramSnapshot {
	nb := int(r.u32())
	if r.err != nil || nb > maxHistBounds {
		r.fail()
		return HistogramSnapshot{}
	}
	// bounds + counts + trailing count/sum, all 8 bytes each.
	if need := (nb + (nb + 1) + 2) * 8; r.remaining() < need {
		r.fail()
		return HistogramSnapshot{}
	}
	h := HistogramSnapshot{
		Bounds: make([]float64, nb),
		Counts: make([]int64, nb+1),
	}
	for i := range h.Bounds {
		h.Bounds[i] = r.f64()
	}
	for i := range h.Counts {
		h.Counts[i] = int64(r.u64())
	}
	h.Count = int64(r.u64())
	h.Sum = r.f64()
	h.summarize()
	return h
}

// DecodeTelemetryFrame parses one telemetry payload. A payload over
// MaxTelemetrySize is ErrTelemetryTooLarge; any malformation — bad magic,
// unsupported version, counts the payload cannot back, trailing garbage —
// is ErrTelemetryBad.
func DecodeTelemetryFrame(payload []byte) (*TelemetryFrame, error) {
	if len(payload) > MaxTelemetrySize {
		return nil, ErrTelemetryTooLarge
	}
	r := &wireReader{b: payload}
	if r.u16() != telemetryMagic {
		return nil, ErrTelemetryBad
	}
	version := int(r.u8())
	if version != TelemetryVersion {
		return nil, ErrTelemetryBad
	}
	r.u8() // flags, reserved
	f := &TelemetryFrame{Version: version}
	f.Seq = r.u64()
	f.Source = r.str()

	if n := r.count(2 + 8); n > 0 {
		f.Metrics.Counters = make(map[string]int64, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str()
			f.Metrics.Counters[k] = int64(r.u64())
		}
	}
	if n := r.count(2 + 8); n > 0 {
		f.Metrics.Gauges = make(map[string]float64, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str()
			f.Metrics.Gauges[k] = r.f64()
		}
	}
	if n := r.count(2 + 4 + 8 + 8 + 8); n > 0 {
		f.Metrics.Histograms = make(map[string]HistogramSnapshot, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str()
			f.Metrics.Histograms[k] = r.hist()
		}
	}
	if n := r.count(2 + 8 + 8 + 8 + 1); n > 0 {
		f.Metrics.Windows = make(map[string]WindowSnapshot, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str()
			w := WindowSnapshot{
				WindowMS: int64(r.u64()),
				Count:    int64(r.u64()),
				Rate:     r.f64(),
			}
			switch r.u8() {
			case 0:
			case 1:
				h := r.hist()
				w.Hist = &h
			default:
				r.fail()
			}
			f.Metrics.Windows[k] = w
		}
	}
	if n := r.count(4); n > 0 {
		f.Cells = make([]CellSummary, 0, min(n, r.remaining()/4+1))
		for i := 0; i < n && r.err == nil; i++ {
			var c CellSummary
			if decodeJSONEntry(r, &c) {
				f.Cells = append(f.Cells, c)
			}
		}
	}
	if n := r.count(4); n > 0 {
		f.Spans = make([]SpanRecord, 0, min(n, r.remaining()/4+1))
		for i := 0; i < n && r.err == nil; i++ {
			var s SpanRecord
			if decodeJSONEntry(r, &s) {
				f.Spans = append(f.Spans, s)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, ErrTelemetryBad
	}
	return f, nil
}

func decodeJSONEntry(r *wireReader, into any) bool {
	n := int(r.u32())
	if r.err != nil || n > maxJSONEntry {
		r.fail()
		return false
	}
	b := r.bytes(n)
	if b == nil {
		return false
	}
	if err := json.Unmarshal(b, into); err != nil {
		r.fail()
		return false
	}
	return true
}
