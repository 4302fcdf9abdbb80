package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/interrupt"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// TestFigure6RowOrder runs Figure 6 twice: stdout and figure6.csv must be
// byte-identical, with the CSV's type column in the figure's legend order.
func TestFigure6RowOrder(t *testing.T) {
	var outs, csvs [][]byte
	for run := 0; run < 2; run++ {
		r := runner{figRuns: 1, seed: 1, outDir: t.TempDir(), md: &strings.Builder{}}
		outs = append(outs, captureStdout(t, r.figure6))
		csv, err := os.ReadFile(filepath.Join(r.outDir, "figure6.csv"))
		if err != nil {
			t.Fatal(err)
		}
		csvs = append(csvs, csv)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("stdout differs between runs:\n%s\n---\n%s", outs[0], outs[1])
	}
	if !bytes.Equal(csvs[0], csvs[1]) {
		t.Fatal("figure6.csv differs between runs")
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSpace(string(csvs[0])), "\n")[1:] {
		ty, _, _ := strings.Cut(line, ",")
		if len(types) == 0 || types[len(types)-1] != ty {
			types = append(types, ty)
		}
	}
	var legend []string
	for _, ty := range []interrupt.Type{
		interrupt.SoftNetRX, interrupt.SoftTimer, interrupt.SoftTasklet,
		interrupt.LocalTimer, interrupt.IRQWork, interrupt.NetRX,
	} {
		legend = append(legend, ty.String())
	}
	if !slices.Equal(types, legend) {
		t.Fatalf("figure6.csv type order %q, want legend order %q", types, legend)
	}
}
