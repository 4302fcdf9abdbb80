package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// frame encodes one payload with Begin and End.
func frame(dst, payload []byte) []byte {
	dst, start := Begin(dst)
	return End(append(dst, payload...), start)
}

// trickle hands its stream out one byte per Read, so the bufio layer
// cannot read ahead, and counts the bytes it handed out.
type trickle struct {
	r io.Reader
	n int
}

func (t *trickle) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	n, err := t.r.Read(p)
	t.n += n
	return n, err
}

// TestReader reads one byte stream per case to its end: the payloads it
// yields, then the error that stops it.
func TestReader(t *testing.T) {
	const limit = 16
	cases := []struct {
		name   string
		stream []byte
		want   [][]byte
		err    error
		// read is how many stream bytes the reader may consume; 0 means all.
		read int
	}{
		{name: "two frames", stream: frame(frame(nil, []byte("hello")), []byte("world!")),
			want: [][]byte{[]byte("hello"), []byte("world!")}, err: io.EOF},
		{name: "zero-length frame", stream: frame(frame(nil, nil), []byte("x")),
			want: [][]byte{{}, []byte("x")}, err: io.EOF},
		{name: "payload at the cap", stream: frame(nil, make([]byte, limit)),
			want: [][]byte{make([]byte, limit)}, err: io.EOF},
		{name: "over the cap", stream: append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 64)...),
			err: ErrTooLarge, read: HeaderLen},
		{name: "one over the cap", stream: frame(nil, make([]byte, limit+1)),
			err: ErrTooLarge, read: HeaderLen},
		{name: "short prefix", stream: []byte{1, 0}, err: io.ErrUnexpectedEOF},
		{name: "truncated payload", stream: frame(nil, []byte("hello"))[:HeaderLen+2], err: io.ErrUnexpectedEOF},
		{name: "prefix without payload", stream: frame(nil, []byte("hello"))[:HeaderLen], err: io.ErrUnexpectedEOF},
		{name: "empty stream", stream: nil, err: io.EOF},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := &trickle{r: bytes.NewReader(c.stream)}
			r := NewReader(src, limit)
			var got [][]byte
			var err error
			for {
				var p []byte
				if p, err = r.Next(); err != nil {
					if p != nil {
						t.Fatalf("error %v with a payload", err)
					}
					break
				}
				got = append(got, append([]byte{}, p...))
			}
			if !errors.Is(err, c.err) {
				t.Fatalf("stopped with %v, want %v", err, c.err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("read %d frames, want %d", len(got), len(c.want))
			}
			for i := range got {
				if !bytes.Equal(got[i], c.want[i]) {
					t.Fatalf("frame %d = %q, want %q", i, got[i], c.want[i])
				}
			}
			if c.read > 0 && src.n > c.read {
				t.Fatalf("consumed %d stream bytes, want at most %d", src.n, c.read)
			}
			if errors.Is(c.err, ErrTooLarge) && cap(r.buf) != 0 {
				t.Fatalf("allocated %d bytes for a refused frame", cap(r.buf))
			}
		})
	}
}

// Once the payload buffer has grown, reading a frame allocates nothing.
func TestReaderReusesBuffer(t *testing.T) {
	stream := frame(nil, make([]byte, 200)) // the largest frame comes first
	for i := 0; i < 200; i++ {
		stream = frame(stream, bytes.Repeat([]byte{byte(i)}, 100+i%50))
	}
	r := NewReader(bytes.NewReader(stream), 1<<10)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per frame, want 0", allocs)
	}
}

// FuzzFrame: under a small cap the reader never returns a payload over
// the cap and never panics, and every payload it returns, framed again
// with Begin and End, reads back identically.
func FuzzFrame(f *testing.F) {
	const limit = 64
	f.Add(frame(frame(nil, []byte("ab")), nil))
	f.Add(frame(nil, make([]byte, limit)))
	f.Add(frame(nil, make([]byte, limit+1)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), limit)
		for {
			p, err := r.Next()
			if err != nil {
				if p != nil {
					t.Fatalf("error %v with a payload", err)
				}
				return
			}
			if len(p) > limit {
				t.Fatalf("payload of %d bytes over the %d-byte cap", len(p), limit)
			}
			again := NewReader(bytes.NewReader(frame(nil, p)), limit)
			q, err := again.Next()
			if err != nil || !bytes.Equal(q, p) {
				t.Fatalf("re-framed payload read back as %q, %v; want %q", q, err, p)
			}
			if _, err := again.Next(); err != io.EOF {
				t.Fatalf("re-framed stream: %v after the frame, want io.EOF", err)
			}
		}
	})
}
