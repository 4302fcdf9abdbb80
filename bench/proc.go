package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one workload run: where the binaries and scratch files live, the
// output checks made so far, and every process started.
type env struct {
	options
	ctx   context.Context
	bin   string
	work  string
	pins  *pins
	seen  map[string]string // first digest per output key, for determinism checks
	fails []string
	mu    sync.Mutex // guards procs
	procs []*proc
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64 // untraced runs
	layers            map[string]float64 // traced runs
}

func (e *env) fail(format string, args ...any) {
	e.fails = append(e.fails, fmt.Sprintf(format, args...))
}

// path names a file or directory under the run's work directory; the
// commands create the directories they are given.
func (e *env) path(format string, args ...any) string {
	return filepath.Join(e.work, fmt.Sprintf(format, args...))
}

// timed repeats op for the measuring window. Every op that starts inside
// the window finishes and counts; at least one always runs. An op that
// returns an error is recorded as failed.
func (e *env) timed(op func(i int) error) (attempted, failed int) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.seconds; i++ {
		attempted++
		if err := op(i); err != nil {
			failed++
			e.fail("op %d: %v", i, err)
		}
		if e.ctx.Err() != nil {
			break
		}
	}
	return attempted, failed
}

// usage is what finished processes cost: wall time, CPU time (user +
// system) and peak resident memory.
type usage struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
}

// proc is one started command.
type proc struct {
	cmd    *exec.Cmd
	start  time.Time
	stdout bytes.Buffer
	mu     sync.Mutex
	stderr []string
	ready  chan string
	done   chan struct{} // closed once standard error reaches EOF
	waited bool
}

// start launches bin/name in the work directory. With ready non-nil it
// waits until a line of the command's standard error matches and returns
// the last submatch.
//
// Every command runs with GOMAXPROCS=1. On a shared 2-vCPU host, runs
// that use both vCPUs vary between repetitions about three times as much
// as single-threaded ones, and serve-open leaves the other vCPU to the
// load generator.
func (e *env) start(ready *regexp.Regexp, name string, args ...string) (*proc, string, error) {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	cmd.Env = append(os.Environ(), "TMPDIR="+e.work, "GOMAXPROCS=1")
	cmd.WaitDelay = 5 * time.Second
	p := &proc{cmd: cmd, ready: make(chan string, 1), done: make(chan struct{})}
	cmd.Stdout = &p.stdout
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		matched := ready == nil
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr = append(p.stderr, line)
			p.mu.Unlock()
			if !matched {
				if m := ready.FindStringSubmatch(line); m != nil {
					matched = true
					p.ready <- m[len(m)-1]
				}
			}
		}
	}()
	if ready == nil {
		return p, "", nil
	}
	select {
	case m := <-p.ready:
		return p, m, nil
	case <-p.done:
		_, err := p.wait()
		return nil, "", fmt.Errorf("%s exited before it was ready: %v", name, err)
	case <-e.ctx.Done():
		return nil, "", e.ctx.Err()
	}
}

// find returns the first submatch of re in the standard error seen so far.
func (p *proc) find(re *regexp.Regexp) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range p.stderr {
		if m := re.FindStringSubmatch(line); m != nil {
			return m[len(m)-1]
		}
	}
	return ""
}

// wait waits for the command to exit and returns what it cost.
func (p *proc) wait() (usage, error) {
	<-p.done
	err := p.cmd.Wait()
	p.waited = true
	u := usage{wall: time.Since(p.start)}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		p.mu.Lock()
		tail := p.stderr[max(0, len(p.stderr)-5):]
		p.mu.Unlock()
		return u, fmt.Errorf("%s: %v: %s", filepath.Base(p.cmd.Path), err, strings.Join(tail, " | "))
	}
	return u, nil
}

// stop interrupts the command, which shuts down cleanly, and waits for it.
func (p *proc) stop() (usage, error) {
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		return usage{}, err
	}
	return p.wait()
}

// stopAll kills whatever a failed run left behind and waits for it.
func (e *env) stopAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.procs {
		if !p.waited {
			p.cmd.Process.Kill()
			p.wait()
		}
	}
}

// run runs bin/name to completion and returns its standard output.
func (e *env) run(name string, args ...string) ([]byte, usage, error) {
	p, _, err := e.start(nil, name, args...)
	if err != nil {
		return nil, usage{}, err
	}
	u, err := p.wait()
	return p.stdout.Bytes(), u, err
}

// experimentsArgs is the shared cmd/experiments command line.
func (e *env) experimentsArgs(only, out string, extra ...string) []string {
	return append([]string{"-scale", "small", "-seed", fmt.Sprint(e.seed), "-only", only, "-out", out}, extra...)
}
