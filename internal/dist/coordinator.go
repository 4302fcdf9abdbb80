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

// ErrClosed reports work submitted to (or stranded on) a coordinator that
// has shut down.
var ErrClosed = errors.New("dist: coordinator closed")

// Coordinator-side observability on the default registry, mirrored by the
// per-coordinator Stats so tests don't depend on global counter state.
var (
	gWorkers      = obs.Default.Gauge("dist.workers.connected")
	cWorkersSeen  = obs.Default.Counter("dist.workers.seen")
	cDispatched   = obs.Default.Counter("dist.cells.dispatched")
	cCompleted    = obs.Default.Counter("dist.cells.completed")
	cRetries      = obs.Default.Counter("dist.cells.retries")
	cDeadlineShed = obs.Default.Counter("dist.cells.deadline_shed")
	cLateResults  = obs.Default.Counter("dist.cells.late_results")
	cBadTelemetry = obs.Default.Counter("dist.telemetry.rejected")
)

// Config tunes a coordinator. The zero value is usable: no per-cell
// deadline, 4 attempts per cell, and 200 ms retry backoff (doubling per
// attempt).
type Config struct {
	// Deadline bounds one assignment of one cell; past it the cell is
	// taken back and requeued immediately, so a hung worker cannot wedge
	// the run. 0 disables.
	Deadline time.Duration
	// MaxAttempts caps how many times one cell is assigned before its
	// whole batch fails.
	MaxAttempts int
	// RetryBackoff delays a cell's re-dispatch after its worker died,
	// doubling per attempt — a crashing cell shouldn't immediately take
	// the next worker down with it. Deadline sheds requeue immediately.
	RetryBackoff time.Duration
}

// Coordinator listens for worker replicas and shards cell batches over
// them. Dispatch is pull-based work stealing: workers advertise idle lanes
// ('R' messages) and the coordinator pairs them with queued cells, so slow
// cells never straggle behind a static partition. It implements
// core.CellDispatcher, which is how whole table grids reroute here.
type Coordinator struct {
	cfg Config
	ln  net.Listener
	agg *obs.Aggregator

	mu     sync.Mutex
	closed bool
	nextID uint32
	queue  []*task
	idle   []*conn
	tasks  map[uint32]*task // unfinished tasks by id
	conns  map[*conn]struct{}

	wg sync.WaitGroup // accept loop + connection handlers

	workers      atomic.Int64
	workersSeen  atomic.Int64
	dispatched   atomic.Int64
	completed    atomic.Int64
	retries      atomic.Int64
	deadlineShed atomic.Int64
	lateResults  atomic.Int64
}

// task is one cell's dispatch state, guarded by Coordinator.mu.
type task struct {
	id       uint32
	b        *batch
	idx      int
	spec     []byte
	scenario string
	attempt  uint32
	assigned *conn
	done     bool
	timer    *time.Timer // deadline for the current assignment
}

// batch is one RunCells call: results slot per spec, first error wins.
type batch struct {
	mu        sync.Mutex
	remaining int
	results   []core.CellResult
	err       error
	finished  bool
	done      chan struct{}
}

func (b *batch) deliver(idx int, res core.CellResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.finished {
		return
	}
	b.results[idx] = res
	b.remaining--
	if b.remaining == 0 {
		b.finished = true
		close(b.done)
	}
}

func (b *batch) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.finished {
		return
	}
	b.finished = true
	b.err = err
	close(b.done)
}

// conn is one worker connection. Writes serialize on wmu; everything else
// is guarded by Coordinator.mu.
type conn struct {
	c        net.Conn
	name     string
	inflight map[uint32]*task

	wmu  sync.Mutex
	dead bool
}

func (cn *conn) write(buf []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if cn.dead {
		return net.ErrClosed
	}
	if _, err := cn.c.Write(buf); err != nil {
		// The reader sees the closed socket and requeues this conn's
		// inflight cells.
		cn.dead = true
		cn.c.Close()
		return err
	}
	return nil
}

// send is a deferred write: built under Coordinator.mu, performed after
// unlocking so a stalled worker socket never blocks dispatch.
type send struct {
	cn  *conn
	buf []byte
}

// NewCoordinator listens on addr (e.g. ":7201" or "127.0.0.1:0") and
// starts accepting workers.
func NewCoordinator(addr string, cfg Config) (*Coordinator, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	co := &Coordinator{
		cfg:   cfg,
		ln:    ln,
		agg:   obs.NewAggregator(),
		tasks: make(map[uint32]*task),
		conns: make(map[*conn]struct{}),
	}
	co.wg.Add(1)
	go co.acceptLoop()
	return co, nil
}

// Addr is the listener's address, for workers to dial.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Aggregator exposes the telemetry merge point (worker metrics and
// manifest rows).
func (co *Coordinator) Aggregator() *obs.Aggregator { return co.agg }

func (co *Coordinator) acceptLoop() {
	defer co.wg.Done()
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return
		}
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			co.handleConn(c)
		}()
	}
}

func (co *Coordinator) handleConn(nc net.Conn) {
	defer nc.Close()
	fr := wire.NewReader(nc, maxFrame)
	payload, err := fr.Next()
	if err != nil {
		return
	}
	m, err := DecodeMsg(payload)
	if err != nil || m.Kind != msgHello || m.Proto != ProtocolVersion || m.Name == "" {
		return
	}
	cn := &conn{c: nc, name: m.Name, inflight: make(map[uint32]*task)}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.conns[cn] = struct{}{}
	co.mu.Unlock()
	gWorkers.Set(co.workers.Add(1))
	co.workersSeen.Add(1)
	cWorkersSeen.Inc()
	obs.Eventf("worker_join", "worker %s joined from %s", cn.name, nc.RemoteAddr())
	defer co.dropConn(cn)
	for {
		payload, err := fr.Next()
		if err != nil {
			return
		}
		m, err := DecodeMsg(payload)
		if err != nil {
			return
		}
		switch m.Kind {
		case msgReady:
			co.laneReady(cn)
		case msgResult:
			co.handleResult(cn, m)
		case msgTelemetry:
			co.ingestTelemetry(m.Payload)
		default:
			return
		}
	}
}

// dropConn unregisters a dead worker, requeueing (with backoff) every cell
// it still held.
func (co *Coordinator) dropConn(cn *conn) {
	co.mu.Lock()
	if _, ok := co.conns[cn]; !ok {
		co.mu.Unlock()
		return
	}
	delete(co.conns, cn)
	idle := co.idle[:0]
	for _, c := range co.idle {
		if c != cn {
			idle = append(idle, c)
		}
	}
	co.idle = idle
	var sends []send
	for id, t := range cn.inflight {
		delete(cn.inflight, id)
		if t.done || t.assigned != cn {
			continue
		}
		t.assigned = nil
		if t.timer != nil {
			t.timer.Stop()
		}
		sends = append(sends, co.requeueLocked(t, true)...)
	}
	co.mu.Unlock()
	gWorkers.Set(co.workers.Add(-1))
	obs.Eventf("worker_leave", "worker %s left", cn.name)
	co.performSends(sends)
}

// laneReady records one idle lane and dispatches queued work onto it.
func (co *Coordinator) laneReady(cn *conn) {
	co.mu.Lock()
	co.idle = append(co.idle, cn)
	sends := co.dispatchLocked()
	co.mu.Unlock()
	co.performSends(sends)
}

// dispatchLocked pairs queued tasks with idle lanes, returning the writes
// to perform once the lock drops.
func (co *Coordinator) dispatchLocked() []send {
	var sends []send
	for len(co.queue) > 0 && len(co.idle) > 0 {
		t := co.queue[0]
		co.queue = co.queue[1:]
		if t.done {
			continue // cancelled while queued (its batch failed)
		}
		cn := co.idle[0]
		co.idle = co.idle[1:]
		sends = append(sends, co.assignLocked(t, cn))
	}
	return sends
}

func (co *Coordinator) assignLocked(t *task, cn *conn) send {
	t.assigned = cn
	cn.inflight[t.id] = t
	co.dispatched.Add(1)
	cDispatched.Inc()
	if d := co.cfg.Deadline; d > 0 {
		attempt := t.attempt
		t.timer = time.AfterFunc(d, func() { co.onDeadline(t, attempt) })
	}
	return send{cn: cn, buf: AppendCell(nil, t.id, t.attempt, t.spec)}
}

func (co *Coordinator) performSends(sends []send) {
	for _, s := range sends {
		s.cn.write(s.buf)
	}
}

// onDeadline takes a cell back from a hung assignment and requeues it
// immediately. The worker's eventual answer (if any) arrives with a stale
// attempt number and is dropped as a late result.
func (co *Coordinator) onDeadline(t *task, attempt uint32) {
	co.mu.Lock()
	if t.done || t.attempt != attempt || t.assigned == nil {
		co.mu.Unlock()
		return
	}
	cn := t.assigned
	delete(cn.inflight, t.id)
	t.assigned = nil
	co.deadlineShed.Add(1)
	cDeadlineShed.Inc()
	obs.Eventf("dist_deadline_shed", "cell %q attempt %d exceeded %s on %s",
		t.scenario, attempt, co.cfg.Deadline, cn.name)
	sends := co.requeueLocked(t, false)
	co.mu.Unlock()
	co.performSends(sends)
}

// requeueLocked re-enqueues a cell for another attempt, failing its batch
// once attempts run out. With backoff the cell re-enters the queue after
// RetryBackoff << attempt; without (deadline sheds) it requeues now.
func (co *Coordinator) requeueLocked(t *task, backoff bool) []send {
	if t.done {
		return nil
	}
	t.attempt++
	if co.closed {
		co.failBatchLocked(t.b, ErrClosed)
		return nil
	}
	if int(t.attempt) >= co.cfg.MaxAttempts {
		co.failBatchLocked(t.b, fmt.Errorf("dist: cell %q failed after %d attempts", t.scenario, t.attempt))
		return nil
	}
	co.retries.Add(1)
	cRetries.Inc()
	obs.Eventf("dist_retry", "cell %q requeued for attempt %d", t.scenario, t.attempt)
	if backoff && co.cfg.RetryBackoff > 0 {
		shift := t.attempt - 1
		if shift > 6 {
			shift = 6
		}
		attempt := t.attempt
		time.AfterFunc(co.cfg.RetryBackoff<<shift, func() { co.enqueue(t, attempt) })
		return nil
	}
	co.queue = append(co.queue, t)
	return co.dispatchLocked()
}

// enqueue is the delayed half of a backoff requeue.
func (co *Coordinator) enqueue(t *task, attempt uint32) {
	co.mu.Lock()
	if t.done || t.attempt != attempt {
		co.mu.Unlock()
		return
	}
	if co.closed {
		co.failBatchLocked(t.b, ErrClosed)
		co.mu.Unlock()
		return
	}
	co.queue = append(co.queue, t)
	sends := co.dispatchLocked()
	co.mu.Unlock()
	co.performSends(sends)
}

// failBatchLocked cancels a batch's outstanding tasks and fails it.
func (co *Coordinator) failBatchLocked(b *batch, err error) {
	for id, t := range co.tasks {
		if t.b != b {
			continue
		}
		t.done = true
		if t.timer != nil {
			t.timer.Stop()
		}
		if t.assigned != nil {
			delete(t.assigned.inflight, id)
			t.assigned = nil
		}
		delete(co.tasks, id)
	}
	b.fail(err)
}

// handleResult validates a worker's answer against the task's current
// assignment — a result from a shed or superseded attempt is counted and
// dropped, never double-delivered.
func (co *Coordinator) handleResult(cn *conn, m Msg) {
	co.mu.Lock()
	t, ok := co.tasks[m.ID]
	if !ok || t.done || t.assigned != cn || t.attempt != m.Attempt {
		co.mu.Unlock()
		co.lateResults.Add(1)
		cLateResults.Inc()
		obs.Eventf("dist_late_result", "dropping late result for cell %d attempt %d from %s",
			m.ID, m.Attempt, cn.name)
		return
	}
	t.done = true
	if t.timer != nil {
		t.timer.Stop()
	}
	delete(cn.inflight, t.id)
	delete(co.tasks, t.id)
	b, idx, scenario := t.b, t.idx, t.scenario
	co.mu.Unlock()

	if !m.OK {
		co.failBatch(b, fmt.Errorf("dist: cell %q failed on %s: %s", scenario, cn.name, m.Payload))
		return
	}
	var res core.CellResult
	if err := json.Unmarshal(m.Payload, &res); err != nil {
		co.failBatch(b, fmt.Errorf("dist: cell %q: bad result payload from %s: %w", scenario, cn.name, err))
		return
	}
	co.completed.Add(1)
	cCompleted.Inc()
	b.deliver(idx, res)
}

func (co *Coordinator) failBatch(b *batch, err error) {
	co.mu.Lock()
	co.failBatchLocked(b, err)
	co.mu.Unlock()
}

func (co *Coordinator) ingestTelemetry(payload []byte) {
	f, err := obs.DecodeTelemetryFrame(payload)
	if err != nil {
		cBadTelemetry.Inc()
		return
	}
	co.agg.Ingest(f)
}

// RunCells shards one batch of cells over the connected workers and blocks
// until every cell has a result or the batch fails. It implements
// core.CellDispatcher; par is ignored — concurrency is bounded by the
// workers' advertised lanes. Safe to call before any worker has joined:
// cells queue until lanes appear.
func (co *Coordinator) RunCells(specs []core.CellSpec, par int) ([]core.CellResult, error) {
	_ = par
	if len(specs) == 0 {
		return nil, nil
	}
	payloads := make([][]byte, len(specs))
	for i := range specs {
		data, err := json.Marshal(specs[i])
		if err != nil {
			return nil, fmt.Errorf("dist: marshal cell %q: %w", specs[i].Scenario.Name, err)
		}
		payloads[i] = data
	}
	b := &batch{
		remaining: len(specs),
		results:   make([]core.CellResult, len(specs)),
		done:      make(chan struct{}),
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil, ErrClosed
	}
	for i := range specs {
		co.nextID++
		t := &task{
			id: co.nextID, b: b, idx: i,
			spec: payloads[i], scenario: specs[i].Scenario.Name,
		}
		co.tasks[t.id] = t
		co.queue = append(co.queue, t)
	}
	sends := co.dispatchLocked()
	co.mu.Unlock()
	co.performSends(sends)
	<-b.done
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil, b.err
	}
	return b.results, nil
}

// Shutdown stops accepting workers, sends bye (workers drain in-flight
// cells, push a final telemetry frame, and disconnect), fails any batch
// still outstanding, and waits up to timeout for connections to wind down
// before force-closing them. Idempotent.
func (co *Coordinator) Shutdown(timeout time.Duration) error {
	co.mu.Lock()
	if !co.closed {
		co.closed = true
		conns := make([]*conn, 0, len(co.conns))
		for cn := range co.conns {
			conns = append(conns, cn)
		}
		batches := make(map[*batch]struct{})
		for _, t := range co.tasks {
			batches[t.b] = struct{}{}
		}
		for b := range batches {
			co.failBatchLocked(b, ErrClosed)
		}
		co.mu.Unlock()
		co.ln.Close()
		bye := AppendBye(nil)
		for _, cn := range conns {
			cn.write(bye)
		}
	} else {
		co.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		co.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	co.mu.Lock()
	for cn := range co.conns {
		cn.c.Close()
	}
	co.mu.Unlock()
	<-done
	return fmt.Errorf("dist: shutdown forced after %s", timeout)
}

// Stats is a point-in-time snapshot of the coordinator's dispatch state.
type Stats struct {
	Workers       int64 `json:"workers"`
	WorkersSeen   int64 `json:"workers_seen"`
	Dispatched    int64 `json:"dispatched"`
	Completed     int64 `json:"completed"`
	Retries       int64 `json:"retries"`
	DeadlineSheds int64 `json:"deadline_sheds"`
	LateResults   int64 `json:"late_results"`
}

// Stats snapshots the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	return Stats{
		Workers:       co.workers.Load(),
		WorkersSeen:   co.workersSeen.Load(),
		Dispatched:    co.dispatched.Load(),
		Completed:     co.completed.Load(),
		Retries:       co.retries.Load(),
		DeadlineSheds: co.deadlineShed.Load(),
		LateResults:   co.lateResults.Load(),
	}
}

// StatusLine renders dispatch progress for the live progress reporter.
func (co *Coordinator) StatusLine() string {
	s := co.Stats()
	line := fmt.Sprintf("dist %d workers | sent %d done %d", s.Workers, s.Dispatched, s.Completed)
	if s.Retries > 0 {
		line += fmt.Sprintf(" retried %d", s.Retries)
	}
	if s.DeadlineSheds > 0 {
		line += fmt.Sprintf(" shed %d", s.DeadlineSheds)
	}
	return line
}
