// Package wire is the one frame codec of the repo's TCP protocols: the
// serving daemon (internal/serve) and the distributed runner
// (internal/dist). A frame is a little-endian u32 payload length followed
// by that many payload bytes; what a payload holds is each protocol's own
// business, and so is the largest payload it accepts.
//
// Encoders wrap their appends in Begin and End, so no encoder writes or
// computes a length. A Reader checks each declared length against its
// protocol's cap before it reads or allocates, and reuses one payload
// buffer. Every connection buffers its reads, and serve its writes, with
// bufio's default 4 KiB.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// HeaderLen is the size of a frame's length prefix, for callers that size
// a buffer for a whole frame.
const HeaderLen = 4

// ErrTooLarge reports a declared payload length over the reader's cap.
// The stream is unusable after it: the payload was never read.
var ErrTooLarge = errors.New("wire: frame exceeds its protocol's cap")

// Begin starts a frame at the end of dst. It returns dst with room for
// the length prefix and the frame's start offset, which End takes.
func Begin(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

// End completes the frame Begin started at start: everything appended
// since is its payload.
func End(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-HeaderLen))
	return dst
}

// Reader reads frames off a stream one at a time.
type Reader struct {
	br    *bufio.Reader
	limit uint32
	hdr   [HeaderLen]byte
	buf   []byte
}

// NewReader returns a Reader over r that refuses any payload over limit
// bytes.
func NewReader(r io.Reader, limit uint32) *Reader {
	return &Reader{br: bufio.NewReader(r), limit: limit}
}

// Next reads one frame and returns its payload, which aliases the
// reader's buffer and stays valid until the next call. It returns io.EOF
// when the stream ends at a frame boundary, io.ErrUnexpectedEOF when it
// ends inside a frame, and ErrTooLarge, before reading or allocating
// anything more, when the declared length is over the cap.
func (r *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(r.hdr[:])
	if n > r.limit {
		return nil, ErrTooLarge
	}
	if uint32(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return r.buf, nil
}
