package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Worker pacing: a worker pushes its metrics and manifest rows once per
// telemetryInterval (plus a final push when it drains), and retries its
// dial for dialBudget, which covers the worker-before-coordinator start
// race.
const (
	telemetryInterval = time.Second
	dialBudget        = 10 * time.Second
)

// WorkerOptions tunes one worker replica. Run is required; the other
// fields default to name host:pid and one lane.
type WorkerOptions struct {
	// Name is the worker's telemetry source name; it must be unique within
	// one coordinator's aggregation domain.
	Name string
	// Lanes is how many cells this worker runs concurrently. Each lane is
	// one outstanding 'R' at the coordinator; compute inside a cell stays
	// bounded by core's process-wide slot pool regardless.
	Lanes int
	// Run executes one cell: cmd/experiments passes the RunCell of the
	// core.Runner it built from the worker's own flags (a Runner without a
	// dispatcher, so a worker never dispatches back to a coordinator);
	// tests substitute stubs.
	Run func(core.CellSpec) (core.CellResult, error)
}

func (o *WorkerOptions) applyDefaults() {
	if o.Name == "" {
		o.Name = obs.DefaultTelemetrySource()
	}
	if o.Lanes <= 0 {
		o.Lanes = 1
	}
}

// worker is one live connection's state.
type worker struct {
	opt  WorkerOptions
	conn net.Conn
	wmu  sync.Mutex
	seq  atomic.Uint64

	rowsMu sync.Mutex
	rows   []obs.CellSummary
}

// RunWorker connects to a coordinator, pulls cells until it is told to
// drain (bye), and returns nil on a clean drain. Dial failures retry for
// 10 s; a connection lost mid-run is an error (the coordinator requeues
// this worker's cells elsewhere).
func RunWorker(addr string, opt WorkerOptions) error {
	if opt.Run == nil {
		return errors.New("dist: WorkerOptions.Run is required")
	}
	opt.applyDefaults()
	conn, err := dialRetry(addr, dialBudget)
	if err != nil {
		return err
	}
	defer conn.Close()
	w := &worker{opt: opt, conn: conn}
	if err := w.write(AppendHello(nil, opt.Name)); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}

	type job struct {
		id, attempt uint32
		spec        []byte
	}
	jobs := make(chan job, opt.Lanes)
	var execWG sync.WaitGroup
	for i := 0; i < opt.Lanes; i++ {
		execWG.Add(1)
		go func() {
			defer execWG.Done()
			for j := range jobs {
				w.runCell(j.id, j.attempt, j.spec)
			}
		}()
	}
	stopTelemetry := make(chan struct{})
	var telWG sync.WaitGroup
	telWG.Add(1)
	go func() {
		defer telWG.Done()
		tick := time.NewTicker(telemetryInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.pushTelemetry()
			case <-stopTelemetry:
				return
			}
		}
	}()
	drain := func() {
		close(jobs)
		execWG.Wait()
		close(stopTelemetry)
		telWG.Wait()
		w.pushTelemetry() // final frame: complete manifest-row set
	}

	// Advertise every lane. The coordinator counts outstanding 'R's, so a
	// conn appears once per idle lane in its dispatch list.
	buf := AppendReady(nil)
	for i := 0; i < opt.Lanes; i++ {
		if err := w.write(buf); err != nil {
			drain()
			return fmt.Errorf("dist: ready: %w", err)
		}
	}

	fr := wire.NewReader(conn, maxFrame)
	for {
		payload, err := fr.Next()
		if err != nil {
			drain()
			return fmt.Errorf("dist: connection lost: %w", err)
		}
		m, err := DecodeMsg(payload)
		if err != nil {
			drain()
			return err
		}
		switch m.Kind {
		case msgCell:
			// The payload aliases the read buffer; copy before handing it
			// to an executor lane.
			jobs <- job{m.ID, m.Attempt, append([]byte(nil), m.Payload...)}
		case msgBye:
			drain()
			return nil
		default:
			drain()
			return fmt.Errorf("dist: unexpected message %q from coordinator", m.Kind)
		}
	}
}

func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	for {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
		}
		time.Sleep(150 * time.Millisecond)
	}
}

func (w *worker) write(buf []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_, err := w.conn.Write(buf)
	return err
}

// runCell parses, validates, and executes one assignment, answering with
// the result (or the error — worker-side cell failures are reported, not
// fatal) plus a fresh 'R' re-advertising the lane.
func (w *worker) runCell(id, attempt uint32, specJSON []byte) {
	res, err := func() (core.CellResult, error) {
		spec, err := core.ParseCellSpec(specJSON)
		if err != nil {
			return core.CellResult{}, err
		}
		if err := spec.Validate(); err != nil {
			return core.CellResult{}, err
		}
		return w.opt.Run(spec)
	}()
	var buf []byte
	if err != nil {
		buf = AppendResult(nil, id, attempt, false, []byte(err.Error()))
	} else {
		if res.Summary != nil {
			w.rowsMu.Lock()
			w.rows = append(w.rows, *res.Summary)
			w.rowsMu.Unlock()
		}
		body, merr := json.Marshal(res)
		if merr != nil {
			buf = AppendResult(nil, id, attempt, false, []byte(merr.Error()))
		} else {
			buf = AppendResult(nil, id, attempt, true, body)
		}
	}
	buf = AppendReady(buf)
	w.write(buf)
}

// pushTelemetry exports this process's metrics plus the accumulated
// manifest rows as one absolute-snapshot frame. Frames are idempotent at
// the aggregator (latest Seq wins), so a lost push costs staleness only.
func (w *worker) pushTelemetry() {
	f := obs.ExportFrame(w.opt.Name, w.seq.Add(1), obs.Default)
	w.rowsMu.Lock()
	f.Cells = append([]obs.CellSummary(nil), w.rows...)
	w.rowsMu.Unlock()
	payload, err := obs.AppendTelemetryFrame(nil, f)
	if err != nil {
		return
	}
	w.write(AppendTelemetry(nil, payload))
}
