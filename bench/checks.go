package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pins are the outputs expected for seed 1 (testdata/pins.json): digests
// of each operation's outputs, and each experiment cell's full-precision
// top-1/top-5 means from traced runs.
type pins struct {
	Digests map[string]string     `json:"digests"`
	Cells   map[string][2]float64 `json:"cells"`
}

func loadPins(path string) (*pins, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &p, nil
}

// digestOutput hashes an invocation's standard output and every file of
// its -out directory, in name order. Each output is hashed as its sorted
// lines: Figure 6 prints and writes its rows in Go map order, which
// differs from run to run.
func digestOutput(stdout []byte, outDir string) (string, error) {
	h := sha256.New()
	add := func(name string, data []byte) {
		lines := strings.Split(string(data), "\n")
		sort.Strings(lines)
		fmt.Fprintf(h, "%s\x00%d\x00%s\x00", name, len(lines), strings.Join(lines, "\n"))
	}
	add("stdout", stdout)
	entries, err := os.ReadDir(outDir)
	if err != nil && !os.IsNotExist(err) {
		return "", err
	}
	for _, ent := range entries { // ReadDir sorts by name
		data, err := os.ReadFile(filepath.Join(outDir, ent.Name()))
		if err != nil {
			return "", err
		}
		add(ent.Name(), data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// check compares an output digest with the first one seen under key in
// this run (every repetition must reproduce it) and, for seed 1, with the
// pinned digest. The error names both digests, so a deliberate output
// change can be re-pinned from it.
func (e *env) check(key, got string) error {
	if err := e.repeat(key, got); err != nil {
		return err
	}
	if want := e.pins.Digests[key]; e.seed == 1 && got != want {
		return fmt.Errorf("%s: seed-1 output %s, pinned %q", key, got, want)
	}
	return nil
}

// repeat checks that got equals the first value seen under key in this run.
func (e *env) repeat(key, got string) error {
	want, ok := e.seen[key]
	if !ok {
		e.seen[key] = got
	} else if got != want {
		return fmt.Errorf("%s: output %s differs from the first repetition's %s", key, got, want)
	}
	return nil
}

// checkOutput digests an invocation's outputs and checks them under key.
func (e *env) checkOutput(key string, stdout []byte, outDir string) error {
	d, err := digestOutput(stdout, outDir)
	if err != nil {
		return err
	}
	return e.check(key, d)
}

// checkCells compares a traced run's per-cell accuracies, digit for digit,
// with the first repetition and, for seed 1, with the pins.
func (e *env) checkCells(key string, m *manifest) error {
	if len(m.Cells) == 0 {
		return fmt.Errorf("%s: manifest has no cell rows", key)
	}
	h := sha256.New()
	var errs []error
	for _, c := range m.Cells {
		got := [2]float64{c.Top1Mean, c.Top5Mean}
		fmt.Fprintf(h, "%s %v\n", c.Scenario, got)
		ck := key + "/" + c.Scenario
		if want, ok := e.pins.Cells[ck]; e.seed == 1 && (!ok || want != got) {
			errs = append(errs, fmt.Errorf("%q: seed-1 top1/top5 %v, pinned %v", ck, got, want))
		}
	}
	errs = append(errs, e.repeat(key+"/cells", hex.EncodeToString(h.Sum(nil))))
	return errors.Join(errs...)
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), which the
// acceptance procedure in README.md uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), m-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
