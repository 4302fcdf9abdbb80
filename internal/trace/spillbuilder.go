package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// SpillBuilder assembles a Store whose value block goes straight to disk:
// collection runs in bounded windows of rows against a small reusable heap
// arena, each window is flushed to its final offset in the shard file, and
// Seal reopens the finished file mmap-backed. Resident value memory is one
// window regardless of dataset size — the path CollectDataset takes when a
// dataset's value bytes exceed the cache budget.
//
// Usage: Advance(lo, hi) → Row/Finish for rows in [lo, hi) (concurrently,
// one writer per row, like Builder) → next Advance flushes — then Seal.
type SpillBuilder struct {
	f      *os.File
	path   string
	n      int
	stride int

	window  []float64 // the reusable per-window arena
	enc     []byte    // encode buffer for one window
	lo, hi  int       // current window rows
	flushed int       // rows already on disk

	rowMeta
	sealed bool
}

// NewSpillBuilder creates the shard file at path and reserves a window
// arena of windowRows rows. The file is pre-created at header size; value
// windows are written at their final page-aligned offsets as they flush.
func NewSpillBuilder(path string, n, stride, windowRows int) (*SpillBuilder, error) {
	if n <= 0 || stride <= 0 {
		return nil, fmt.Errorf("trace: NewSpillBuilder(%d, %d)", n, stride)
	}
	if windowRows <= 0 || windowRows > n {
		windowRows = n
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &SpillBuilder{
		f: f, path: path, n: n, stride: stride,
		window:  make([]float64, windowRows*stride),
		rowMeta: newRowMeta(n),
	}, nil
}

// WindowRows returns the window capacity in rows.
func (b *SpillBuilder) WindowRows() int { return len(b.window) / b.stride }

// Advance flushes the current window (if any) and repositions the arena
// over rows [lo, hi). Windows must be advanced in order without gaps and
// hi-lo must fit the window arena.
func (b *SpillBuilder) Advance(lo, hi int) error {
	if err := b.flush(); err != nil {
		return err
	}
	if lo != b.flushed || hi < lo || hi > b.n || (hi-lo)*b.stride > len(b.window) {
		return fmt.Errorf("trace: SpillBuilder.Advance(%d, %d) with %d flushed, window %d rows", lo, hi, b.flushed, b.WindowRows())
	}
	b.lo, b.hi = lo, hi
	w := b.window[:(hi-lo)*b.stride]
	for i := range w {
		w[i] = 0
	}
	return nil
}

// Row returns row i's window storage as an empty slice with capacity
// stride, ready for append. i must be inside the current window.
func (b *SpillBuilder) Row(i int) []float64 {
	if i < b.lo || i >= b.hi {
		panic(fmt.Sprintf("trace: SpillBuilder.Row(%d) outside window [%d,%d)", i, b.lo, b.hi))
	}
	off := (i - b.lo) * b.stride
	return b.window[off : off : off+b.stride]
}

// Finish publishes trace i into the current window (same contract as
// Builder.Finish).
func (b *SpillBuilder) Finish(i int, tr Trace) {
	if i < b.lo || i >= b.hi {
		panic(fmt.Sprintf("trace: SpillBuilder.Finish(%d) outside window [%d,%d)", i, b.lo, b.hi))
	}
	b.finish(i, tr)
	off := (i - b.lo) * b.stride
	row := b.window[off : off+b.stride]
	if len(tr.Values) > 0 && &tr.Values[0] != &row[0] {
		copy(row, tr.Values)
	}
}

// flush encodes the current window little-endian and writes it at its
// final offset in the value block.
func (b *SpillBuilder) flush() error {
	rows := b.hi - b.lo
	if rows == 0 {
		return nil
	}
	vals := b.window[:rows*b.stride]
	need := len(vals) * 8
	if cap(b.enc) < need {
		b.enc = make([]byte, need)
	}
	enc := b.enc[:need]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(enc[i*8:], math.Float64bits(v))
	}
	off := int64(shardValOff) + int64(b.lo)*int64(b.stride)*8
	if _, err := b.f.WriteAt(enc, off); err != nil {
		return err
	}
	b.flushed = b.hi
	b.lo = b.hi
	return nil
}

// Seal flushes the last window, checks the rows the way Builder.Seal does,
// writes metadata and header, closes the file, and reopens it as an
// mmap-backed (or read-copy fallback) Store.
func (b *SpillBuilder) Seal(numClasses int) (*Store, error) {
	if b.sealed {
		return nil, fmt.Errorf("trace: SpillBuilder already sealed")
	}
	b.sealed = true
	defer b.f.Close()
	if err := b.flush(); err != nil {
		return nil, err
	}
	if b.flushed != b.n {
		return nil, fmt.Errorf("trace: SpillBuilder sealed with %d/%d rows flushed", b.flushed, b.n)
	}
	traceLen, trimmed, err := b.seal(b.stride, numClasses)
	if err != nil {
		return nil, err
	}
	meta := (&Store{
		n: b.n, domains: b.domains, attacks: b.attacks,
		labels: b.labels, periods: b.periods,
	}).encodeShardMeta(make([]byte, 0, b.n*48))
	valBytes := int64(b.n) * int64(b.stride) * 8
	if _, err := b.f.WriteAt(meta, shardValOff+valBytes); err != nil {
		return nil, err
	}
	hdr := make([]byte, shardHdrLen)
	putShardHeader(hdr, shardHeader{
		version: shardVersion,
		n:       b.n, stride: b.stride, traceLen: traceLen,
		classes: numClasses, trimmed: trimmed, metaLen: len(meta),
	})
	if _, err := b.f.WriteAt(hdr, 0); err != nil {
		return nil, err
	}
	if err := b.f.Sync(); err != nil {
		return nil, err
	}
	if err := b.f.Close(); err != nil {
		return nil, err
	}
	return OpenShardFile(b.path)
}

// Abort closes and removes the partial file (safe after Seal: no-op).
func (b *SpillBuilder) Abort() {
	if !b.sealed {
		b.f.Close()
		os.Remove(b.path)
		b.sealed = true
	}
}
