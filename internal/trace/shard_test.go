package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func storesEqual(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Len() != b.Len() || a.TraceLen() != b.TraceLen() ||
		a.NumClasses() != b.NumClasses() || a.TrimmedSamples() != b.TrimmedSamples() {
		t.Fatalf("store shape mismatch: %dx%d/%d/%d vs %dx%d/%d/%d",
			a.Len(), a.TraceLen(), a.NumClasses(), a.TrimmedSamples(),
			b.Len(), b.TraceLen(), b.NumClasses(), b.TrimmedSamples())
	}
	for i := 0; i < a.Len(); i++ {
		if a.domains[i] != b.domains[i] || a.labels[i] != b.labels[i] ||
			a.attacks[i] != b.attacks[i] || a.periods[i] != b.periods[i] {
			t.Fatalf("trace %d metadata mismatch", i)
		}
		av, bv := a.Values(i), b.Values(i)
		if len(av) != len(bv) {
			t.Fatalf("trace %d length %d vs %d", i, len(av), len(bv))
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("trace %d sample %d: %v vs %v", i, j, av[j], bv[j])
			}
		}
	}
}

func TestShardFileRoundTrip(t *testing.T) {
	want := buildStore(t, []int{33, 32, 33, 33, 31, 33}, 33)
	path := filepath.Join(t.TempDir(), "store.trst")
	if err := want.WriteShardFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, want, got)
	if runtime.GOOS == "linux" && !got.Spilled() {
		t.Fatal("OpenShardFile did not mmap the value block on linux")
	}
	// The value block must start page-aligned so the kernel can map it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < shardValOff {
		t.Fatalf("file too small: %d bytes", len(raw))
	}
	if binary.LittleEndian.Uint32(raw) != shardMagic {
		t.Fatal("bad magic")
	}
	v0 := binary.LittleEndian.Uint64(raw[shardValOff:])
	if got := want.Values(0)[0]; got != math.Float64frombits(v0) {
		t.Fatalf("value block not at offset %d", shardValOff)
	}
}

// TestReadStoreAnyShard decodes a streamed shard image with the copying
// decoder that platforms without mmap use.
func TestReadStoreAnyShard(t *testing.T) {
	want := buildStore(t, []int{17, 17, 17}, 17)
	var buf bytes.Buffer
	if err := want.WriteShardTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := decodeShard(buf.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, want, got)
}

func TestSpillReloadBitIdentity(t *testing.T) {
	lens := []int{64, 64, 64, 64}
	heap := buildStore(t, lens, 64)
	ref := buildStore(t, lens, 64) // an identical store Spill never sees
	before := heap.ResidentBytes()
	path := filepath.Join(t.TempDir(), "spill.trst")
	sp, err := heap.Spill(path)
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, ref, sp)
	// The receiver is sealed: Spill must leave it exactly as it was.
	if heap.Spilled() || heap.ResidentBytes() != before {
		t.Fatal("Spill changed its receiver")
	}
	storesEqual(t, ref, heap)
	if runtime.GOOS == "linux" {
		if !sp.Spilled() {
			t.Fatal("Spill did not return an mmap-backed store on linux")
		}
		if after := sp.ResidentBytes(); after >= before {
			t.Fatalf("resident bytes did not drop: %d -> %d", before, after)
		}
	}
	// Spilling a spilled store is a no-op that returns it.
	again, err := sp.Spill(path)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && again != sp {
		t.Fatal("re-spill of an mmap-backed store built a new one")
	}
	// And an independent open of the spill file sees the same contents.
	got, err := OpenShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, ref, got)
}

func TestShardHeaderRejects(t *testing.T) {
	want := buildStore(t, []int{9, 9}, 9)
	var buf bytes.Buffer
	if err := want.WriteShardTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = f(b)
		if _, err := decodeShard(b, false); err == nil {
			t.Fatalf("%s: decodeShard accepted corrupt image", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("bad version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:], 99)
		return b
	})
	mutate("truncated header", func(b []byte) []byte { return b[:shardHdrLen-1] })
	mutate("truncated values", func(b []byte) []byte { return b[:shardValOff+7] })
	mutate("huge count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[8:], 1<<60)
		return b
	})
	mutate("huge stride", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], 1<<60)
		return b
	})
	mutate("traceLen beyond stride", func(b []byte) []byte {
		stride := binary.LittleEndian.Uint64(b[16:])
		binary.LittleEndian.PutUint64(b[24:], stride+1)
		return b
	})
	mutate("metaLen beyond file", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[48:], uint64(len(b)))
		return b
	})
	mutate("class count 2^40", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[32:], 1<<40)
		return b
	})
	mutate("zero classes", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[32:], 0)
		return b
	})
	mutate("label beyond classes", func(b []byte) []byte {
		// Trace 0's label follows its domain and attack strings.
		off := shardValOff + 2*9*8
		off += 4 + int(binary.LittleEndian.Uint32(b[off:]))
		off += 4 + int(binary.LittleEndian.Uint32(b[off:]))
		binary.LittleEndian.PutUint64(b[off:], 7)
		return b
	})
}

// FuzzShardDecode hammers the shard decoder with mutated images: it must
// reject garbage with an error, never panic or over-allocate (every count
// and length is validated against the remaining bytes before allocation).
func FuzzShardDecode(f *testing.F) {
	mk := func(lens []int, stride int) []byte {
		b := NewBuilder(len(lens), stride)
		for i, l := range lens {
			tr := storeTrace(i, l)
			row := b.Row(i)
			row = append(row, tr.Values...)
			tr.Values = row
			b.Finish(i, tr)
		}
		s, err := b.Seal(min(3, len(lens)))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteShardTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(mk([]int{5, 4, 5}, 5))
	f.Add(mk([]int{1}, 1))
	f.Add([]byte{})
	f.Add(make([]byte, shardHdrLen))
	f.Add(make([]byte, shardValOff))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeShard(data, false)
		if err != nil {
			return
		}
		// Accepted images must be internally consistent, with the label
		// space a builder would enforce.
		if c := s.NumClasses(); c < 1 || c > s.Len() {
			t.Fatalf("accepted class count %d for %d traces", c, s.Len())
		}
		for i := 0; i < s.Len(); i++ {
			_ = s.Values(i)
			if l := s.Label(i); l < 0 || l >= s.NumClasses() {
				t.Fatalf("accepted label %d of %d classes", l, s.NumClasses())
			}
		}
	})
}
