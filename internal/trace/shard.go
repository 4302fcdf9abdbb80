package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/sim"
)

// Shard file format (version 1) — the on-disk twin of a sealed Store,
// designed so the value block can be mmapped straight into the arena:
//
//	[0,64)            fixed little-endian header (shardHeader)
//	[64,4096)         zero padding
//	[4096, 4096+n*stride*8)   value block: n rows of stride float64, LE
//	[metaOff, metaOff+metaLen) per-trace metadata (domain, attack, label, period)
//
// The value block starts at a page boundary (shardValOff) so an mmap of the
// whole file yields an 8-aligned float64 view with zero copies; platforms
// without mmap read the same bytes through ReadAt. All integers are
// little-endian; the value block is raw IEEE-754 bits, so round-trips are
// bit-identical. Every count and length in the header and metadata section
// is validated against the remaining input before any allocation (the same
// discipline as the serve and telemetry frame decoders).
const (
	shardMagic   = 0x46535254 // "TRSF" little-endian
	shardVersion = 1
	shardHdrLen  = 64
	shardValOff  = 4096 // page-aligned start of the value block
	// shardMaxMeta bounds the metadata section; generous (domains are short
	// strings) while keeping a hostile header from driving a huge read.
	shardMaxMeta = 1 << 30
)

type shardHeader struct {
	version  uint32
	n        int
	stride   int
	traceLen int
	classes  int
	trimmed  int
	metaLen  int
}

func putShardHeader(dst []byte, h shardHeader) {
	binary.LittleEndian.PutUint32(dst[0:], shardMagic)
	binary.LittleEndian.PutUint32(dst[4:], h.version)
	binary.LittleEndian.PutUint64(dst[8:], uint64(h.n))
	binary.LittleEndian.PutUint64(dst[16:], uint64(h.stride))
	binary.LittleEndian.PutUint64(dst[24:], uint64(h.traceLen))
	binary.LittleEndian.PutUint64(dst[32:], uint64(h.classes))
	binary.LittleEndian.PutUint64(dst[40:], uint64(h.trimmed))
	binary.LittleEndian.PutUint64(dst[48:], uint64(h.metaLen))
}

// parseShardHeader decodes and validates the fixed header against the total
// input size, so every derived offset below is known in range.
func parseShardHeader(data []byte, total int64) (shardHeader, error) {
	var h shardHeader
	if len(data) < shardHdrLen {
		return h, fmt.Errorf("trace: shard header truncated (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != shardMagic {
		return h, fmt.Errorf("trace: bad shard magic %#x", m)
	}
	h.version = binary.LittleEndian.Uint32(data[4:])
	if h.version != shardVersion {
		return h, fmt.Errorf("trace: unsupported shard version %d", h.version)
	}
	n := binary.LittleEndian.Uint64(data[8:])
	stride := binary.LittleEndian.Uint64(data[16:])
	traceLen := binary.LittleEndian.Uint64(data[24:])
	classes := binary.LittleEndian.Uint64(data[32:])
	trimmed := binary.LittleEndian.Uint64(data[40:])
	metaLen := binary.LittleEndian.Uint64(data[48:])
	if n == 0 || stride == 0 || traceLen == 0 || traceLen > stride {
		return h, fmt.Errorf("trace: shard header invalid shape n=%d stride=%d len=%d", n, stride, traceLen)
	}
	if metaLen > shardMaxMeta {
		return h, fmt.Errorf("trace: shard metaLen %d too large", metaLen)
	}
	// valBytes = n*stride*8 must fit the file; do the check in uint64 with
	// overflow guards before converting anything to int.
	const maxBytes = 1 << 62
	if n > maxBytes/stride || n*stride > maxBytes/8 {
		return h, fmt.Errorf("trace: shard header overflows n=%d stride=%d", n, stride)
	}
	valBytes := n * stride * 8
	want := uint64(shardValOff) + valBytes + metaLen
	if uint64(total) != want {
		return h, fmt.Errorf("trace: shard size %d, header implies %d", total, want)
	}
	h.n, h.stride, h.traceLen = int(n), int(stride), int(traceLen)
	h.classes, h.trimmed, h.metaLen = int(classes), int(trimmed), int(metaLen)
	return h, nil
}

// encodeShardMeta appends the per-trace metadata section.
func (s *Store) encodeShardMeta(dst []byte) []byte {
	var u32 [4]byte
	var u64 [8]byte
	putStr := func(v string) {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(v)))
		dst = append(dst, u32[:]...)
		dst = append(dst, v...)
	}
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		dst = append(dst, u64[:]...)
	}
	for i := 0; i < s.n; i++ {
		putStr(s.domains[i])
		putStr(s.attacks[i])
		putU64(uint64(int64(s.labels[i])))
		putU64(uint64(int64(s.periods[i])))
	}
	return dst
}

// decodeShardMeta parses the metadata section into the store's parallel
// arrays. Each declared string length is checked against the remaining
// bytes before it is sliced out.
func decodeShardMeta(s *Store, meta []byte) error {
	getStr := func() (string, error) {
		if len(meta) < 4 {
			return "", errors.New("trace: shard meta truncated")
		}
		l := int(binary.LittleEndian.Uint32(meta))
		meta = meta[4:]
		if l < 0 || l > len(meta) {
			return "", fmt.Errorf("trace: shard meta string length %d exceeds %d remaining", l, len(meta))
		}
		v := string(meta[:l])
		meta = meta[l:]
		return v, nil
	}
	getU64 := func() (uint64, error) {
		if len(meta) < 8 {
			return 0, errors.New("trace: shard meta truncated")
		}
		v := binary.LittleEndian.Uint64(meta)
		meta = meta[8:]
		return v, nil
	}
	s.domains = make([]string, s.n)
	s.attacks = make([]string, s.n)
	s.labels = make([]int, s.n)
	s.periods = make([]sim.Duration, s.n)
	for i := 0; i < s.n; i++ {
		var err error
		if s.domains[i], err = getStr(); err != nil {
			return err
		}
		if s.attacks[i], err = getStr(); err != nil {
			return err
		}
		lab, err := getU64()
		if err != nil {
			return err
		}
		per, err := getU64()
		if err != nil {
			return err
		}
		s.labels[i] = int(int64(lab))
		s.periods[i] = sim.Duration(int64(per))
	}
	if len(meta) != 0 {
		return fmt.Errorf("trace: %d trailing bytes after shard meta", len(meta))
	}
	return nil
}

// nativeLE reports whether the host is little-endian, the precondition for
// aliasing the on-disk value block as []float64 without decoding.
var nativeLE = func() bool {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], 0x0102)
	return *(*uint16)(unsafe.Pointer(&b[0])) == 0x0102
}()

// decodeShard rebuilds a Store from a complete shard file image, holding
// it to the label space a builder would (checkLabels). With alias=true (the
// mmap path) the returned store's value block aliases data's value region
// when alignment and byte order allow; otherwise the values are decoded
// into fresh heap memory.
func decodeShard(data []byte, alias bool) (*Store, error) {
	h, err := parseShardHeader(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	valBytes := h.n * h.stride * 8
	valRegion := data[shardValOff : shardValOff+valBytes]
	s := &Store{
		n: h.n, stride: h.stride, traceLen: h.traceLen,
		classes: h.classes, trimmed: h.trimmed,
	}
	if alias && nativeLE && valBytes > 0 && uintptr(unsafe.Pointer(&valRegion[0]))%8 == 0 {
		s.vals = unsafe.Slice((*float64)(unsafe.Pointer(&valRegion[0])), h.n*h.stride)
	} else {
		s.vals = make([]float64, h.n*h.stride)
		for i := range s.vals {
			s.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(valRegion[i*8:]))
		}
	}
	if err := decodeShardMeta(s, data[shardValOff+valBytes:]); err != nil {
		return nil, err
	}
	if err := checkLabels(s.labels, s.classes); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteShardTo streams the store as a version-1 shard file.
func (s *Store) WriteShardTo(w io.Writer) error {
	meta := s.encodeShardMeta(make([]byte, 0, s.n*48))
	hdr := make([]byte, shardValOff)
	putShardHeader(hdr, shardHeader{
		version: shardVersion,
		n:       s.n, stride: s.stride, traceLen: s.traceLen,
		classes: s.classes, trimmed: s.trimmed, metaLen: len(meta),
	})
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 0, 64*1024)
	for off := 0; off < len(s.vals); {
		buf = buf[:0]
		for len(buf) < 64*1024-8 && off < len(s.vals) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.vals[off]))
			off++
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := w.Write(meta)
	return err
}

// WriteShardFile writes the store to path atomically (temp file + rename).
func (s *Store) WriteShardFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".shard-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.WriteShardTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// OpenShardFile opens a shard file as a Store. On platforms with mmap
// support (linux) the value block aliases the mapping — resident memory is
// whatever the OS chooses to page in; elsewhere the file is read into heap
// memory. The returned store owns the mapping for its lifetime (a finalizer
// is deliberately avoided: stores are few and long-lived, and unmapping
// under a live alias would be a use-after-free).
func OpenShardFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if mm, data, merr := mapFile(f, fi.Size()); merr == nil {
		s, err := decodeShard(data, true)
		if err != nil {
			mm.close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.mm = mm
		return s, nil
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	s, err := decodeShard(data, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Spill returns an mmap-backed copy of the store whose value block is the
// shard file at path, written first unless it already exists; metadata is
// shared with s. The receiver never changes, so readers holding s keep
// reading its heap block, which lives as long as they do. Returns s itself
// when it is already spilled, or when the platform has no mmap (the file
// is still written: a valid second cache tier).
func (s *Store) Spill(path string) (*Store, error) {
	if s.mm != nil {
		return s, nil
	}
	if _, err := os.Stat(path); err != nil {
		if err := s.WriteShardFile(path); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	mm, data, err := mapFile(f, fi.Size())
	if err != nil {
		return s, nil // no mmap on this platform: keep the heap block
	}
	re, err := decodeShard(data, true)
	if err != nil || !re.mmAliases(data) {
		// The file on disk doesn't match this store (hash collision or
		// corruption) or the decode fell back to a copy; keep the heap.
		mm.close()
		if err == nil {
			return s, nil
		}
		return nil, fmt.Errorf("spill verify %s: %w", path, err)
	}
	if re.n != s.n || re.stride != s.stride || re.traceLen != s.traceLen {
		mm.close()
		return nil, fmt.Errorf("spill verify %s: shape mismatch", path)
	}
	sp := *s
	sp.vals, sp.mm = re.vals, mm
	return &sp, nil
}

// mmAliases reports whether the store's value block lies inside data.
func (s *Store) mmAliases(data []byte) bool {
	if len(s.vals) == 0 || len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&s.vals[0]))
	lo := uintptr(unsafe.Pointer(&data[0]))
	return p >= lo && p < lo+uintptr(len(data))
}
