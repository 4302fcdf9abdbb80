package main

import (
	"errors"
	"testing"

	"repro/internal/obs"
)

// endless is a reader that never ends, counting the bytes it hands out.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	e.n += len(p)
	return len(p), nil
}

// An endpoint streaming a body without end costs obstop at most the
// payload cap plus one byte, and the scrape fails.
func TestReadBodyBounded(t *testing.T) {
	src := &endless{}
	body, err := readBody(src)
	if !errors.Is(err, obs.ErrTelemetryTooLarge) || body != nil {
		t.Fatalf("readBody = %d bytes, %v; want nil, ErrTelemetryTooLarge", len(body), err)
	}
	if src.n > obs.MaxTelemetrySize+1 {
		t.Fatalf("read %d bytes, want at most %d", src.n, obs.MaxTelemetrySize+1)
	}
}
