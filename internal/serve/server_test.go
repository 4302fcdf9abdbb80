package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testModel compiles a small PaperNet (random weights exercise the same
// kernels as trained ones) plus a bank of raw traces longer than the prep
// target so the full downsample+smooth+zscore path runs per request.
func testModel(t testing.TB) (ml.Frozen, ml.Preprocessor, [][]float64) {
	t.Helper()
	model, err := ml.PaperNet(23, 300, 5, 8, 8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := ml.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewStream(7, "serve-test")
	traces := make([][]float64, 37)
	for i := range traces {
		xs := make([]float64, 900)
		for j := range xs {
			xs[j] = rng.Uniform(0, 50)
		}
		traces[i] = xs
	}
	return cm, ml.DefaultPreprocessor, traces
}

// TestServeMatchesDirect pins the end-to-end contract: a classification
// through submission, coalescing, and a worker session returns the label
// the direct model path computes, with the probability equal to f32
// accumulation tolerance (coalescing changes micro-batch widths, which
// changes the fused head GEMM's summation order).
func TestServeMatchesDirect(t *testing.T) {
	model, prep, traces := testModel(t)
	direct := NaiveClassifier(model, prep, 0)

	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(traces); i += 8 {
				want, _ := direct(traces[i])
				got, err := s.Classify(traces[i])
				if err != nil {
					t.Errorf("trace %d: %v", i, err)
					return
				}
				if got.Label != want.Label {
					t.Errorf("trace %d: served label %d, direct %d", i, got.Label, want.Label)
				}
				if d := got.Prob - want.Prob; d > 1e-6 || d < -1e-6 {
					t.Errorf("trace %d: served prob %v, direct %v", i, got.Prob, want.Prob)
				}
			}
		}(c)
	}
	wg.Wait()
}

// blockingSession is a fake scorer that parks until released, so tests
// can saturate the queue deterministically. entered signals each time a
// worker blocks inside it.
type blockingSession struct {
	release chan struct{}
	entered chan struct{}
	classes int
}

func (b *blockingSession) PredictBatchInto(X []*ml.Tensor, par int, out [][]float64) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	for i := range X {
		if len(out[i]) != b.classes {
			out[i] = make([]float64, b.classes)
		}
		out[i][0] = 1
	}
}
func (b *blockingSession) Close() {}

func newBlockingSession() *blockingSession {
	return &blockingSession{release: make(chan struct{}),
		entered: make(chan struct{}, 64), classes: 5}
}

// TestQueueFullSheds proves admission control: with the single worker
// parked and the queue full, further submissions return ErrOverloaded
// immediately instead of queueing unboundedly.
func TestQueueFullSheds(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := newServer(Config{Model: model, Prep: prep, MaxBatch: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	blk := newBlockingSession()
	s.openSession = func() session { return blk }
	s.start()

	// Park the worker on one request, then fill the queue from background
	// submitters. Classify blocks for admitted requests, so everything
	// past the parked batch goes through goroutines.
	var wg sync.WaitGroup
	results := make(chan error, 64)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := s.Classify(traces[i%len(traces)])
				results <- err
			}(i)
		}
	}
	submit(1)
	<-blk.entered // worker is parked mid-score
	submit(s.cfg.QueueDepth)
	// Wait for the queue to actually fill (submitters are concurrent).
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < s.cfg.QueueDepth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", len(s.queue), s.cfg.QueueDepth)
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Saturated: a further submission must shed synchronously.
	if _, err := s.Classify(traces[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Classify on full queue = %v, want ErrOverloaded", err)
	}

	close(blk.release) // unblock: every queued request must now complete
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
	s.Stop()
}

// TestDeadlineDropsBeforeBatchSlot drives batch assembly white-box: a slot
// whose deadline has passed must be answered with ErrDeadlineExceeded by
// admit and never occupy a position in the batch.
func TestDeadlineDropsBeforeBatchSlot(t *testing.T) {
	model, prep, _ := testModel(t)
	s, err := newServer(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}

	expired := &slot{done: make(chan struct{}, 1), enq: time.Now(),
		deadline: time.Now().Add(-time.Millisecond)}
	live := &slot{done: make(chan struct{}, 1), enq: time.Now(),
		deadline: time.Now().Add(time.Minute)}

	batch := s.admit(expired, nil)
	if len(batch) != 0 {
		t.Fatalf("expired request occupied a batch slot (len=%d)", len(batch))
	}
	select {
	case <-expired.done:
	default:
		t.Fatal("expired request was not answered at admission")
	}
	if !errors.Is(expired.err, ErrDeadlineExceeded) {
		t.Fatalf("expired request err = %v, want ErrDeadlineExceeded", expired.err)
	}

	batch = s.admit(live, batch)
	if len(batch) != 1 || batch[0] != live {
		t.Fatalf("live request not admitted: %v", batch)
	}
}

// TestDeadlineShedsEndToEnd covers the same policy through the public
// API: with the worker parked past the deadline, queued requests come
// back ErrDeadlineExceeded, not scored.
func TestDeadlineShedsEndToEnd(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := newServer(Config{Model: model, Prep: prep,
		Deadline: time.Millisecond, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	blk := newBlockingSession()
	s.openSession = func() session { return blk }
	s.start()

	// The first request parks the worker inside the fake session (it was
	// admitted before its deadline passed). Only then submit the rest, so
	// they sit queued until their deadlines are long gone.
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	submit := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := s.Classify(traces[0])
				errs <- err
			}()
		}
	}
	submit(1)
	<-blk.entered
	submit(3)
	time.Sleep(20 * time.Millisecond) // the queued deadlines expire
	close(blk.release)
	wg.Wait()
	close(errs)
	shed := 0
	for err := range errs {
		if errors.Is(err, ErrDeadlineExceeded) {
			shed++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed != 3 {
		t.Fatalf("%d requests deadline-shed, want all 3 queued behind a 20ms stall", shed)
	}
	s.Stop()
}

// TestConcurrentSubmitShutdown races Classify against Stop (run under
// -race in make ci): every submission must either complete or return
// ErrServerClosed — never panic, deadlock, or send on a closed channel.
func TestConcurrentSubmitShutdown(t *testing.T) {
	model, prep, traces := testModel(t)
	for round := 0; round < 3; round++ {
		s, err := New(Config{Model: model, Prep: prep, QueueDepth: 16})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; ; i++ {
					_, err := s.Classify(traces[(c+i)%len(traces)])
					if errors.Is(err, ErrServerClosed) {
						return
					}
					if err != nil && !errors.Is(err, ErrOverloaded) {
						t.Errorf("submit during shutdown: %v", err)
						return
					}
				}
			}(c)
		}
		time.Sleep(2 * time.Millisecond)
		s.Stop()
		wg.Wait()
		// Post-stop submissions keep failing cleanly.
		if _, err := s.Classify(traces[0]); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("post-stop Classify err = %v, want ErrServerClosed", err)
		}
		// Every reservation was released, on Stop's path too.
		if n := s.queued.Load(); n != 0 {
			t.Fatalf("%d queue reservations outlive Stop", n)
		}
	}
}

// TestStopDrainsQueue checks graceful shutdown answers everything already
// admitted.
func TestStopDrainsQueue(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	okCount := make(chan int, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Classify(traces[i]); err == nil {
				okCount <- 1
			} else if !errors.Is(err, ErrServerClosed) && !errors.Is(err, ErrOverloaded) {
				t.Errorf("drain: %v", err)
			}
		}(i)
	}
	s.Stop()
	wg.Wait()
	close(okCount)
}

// TestTCPRoundTrip exercises the full wire path — listener, pipelining
// client, status mapping — against the in-process result.
func TestTCPRoundTrip(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(traces); i += 4 {
				want, err := s.Classify(traces[i])
				if err != nil {
					t.Errorf("local: %v", err)
					return
				}
				got, err := cli.Classify(traces[i])
				if err != nil {
					t.Errorf("tcp: %v", err)
					return
				}
				if got.Label != want.Label {
					t.Errorf("trace %d: tcp label %d, local %d", i, got.Label, want.Label)
				}
				// prob crosses the wire as f32.
				if diff := got.Prob - want.Prob; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("trace %d: tcp prob %v, local %v", i, got.Prob, want.Prob)
				}
			}
		}(c)
	}
	wg.Wait()
	cli.Close()
	ln.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestRunLoadCounts sanity-checks the load generator bookkeeping on a
// small request-bounded run.
func TestRunLoadCounts(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	res, err := RunLoad(LoadOpts{Classify: s.Classify, Traces: traces, Conc: 4, Requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Requests + res.Overloads + res.Deadline + res.Errors
	if total != 200 {
		t.Fatalf("attempted %d requests, want 200 (%+v)", total, res)
	}
	if res.Requests == 0 || res.Throughput <= 0 || !(res.P50us > 0) {
		t.Fatalf("degenerate load result: %+v", res)
	}
	if res.P50us > res.P99us {
		t.Fatalf("quantiles not monotone: %+v", res)
	}
}

// stubConn is a net.Conn whose reads deliver a fixed byte stream and then
// block until Close, like a peer that stays connected, or, with eof, end
// the stream like a peer that has sent its last request. With failWrites
// every Write fails; with blockWrites every Write blocks until Close, like
// a peer that never reads; otherwise writes succeed and are recorded.
type stubConn struct {
	net.Conn    // nil: only the methods handleConn uses are implemented
	eof         bool
	failWrites  bool
	blockWrites bool
	stalled     chan struct{} // closed when a blocked Write first waits
	closed      chan struct{}
	once        sync.Once
	stallOnce   sync.Once

	mu sync.Mutex // guards r and w
	r  *bytes.Reader
	w  bytes.Buffer
}

func newStubConn(stream []byte, failWrites bool) *stubConn {
	return &stubConn{r: bytes.NewReader(stream), failWrites: failWrites,
		stalled: make(chan struct{}), closed: make(chan struct{})}
}

func (c *stubConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.r.Len() > 0 {
		defer c.mu.Unlock()
		return c.r.Read(p)
	}
	c.mu.Unlock()
	if c.eof {
		return 0, io.EOF
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stubConn) Write(p []byte) (int, error) {
	switch {
	case c.failWrites:
		return 0, errors.New("injected write failure")
	case c.blockWrites:
		c.stallOnce.Do(func() { close(c.stalled) })
		<-c.closed
		return 0, net.ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Write(p)
}

func (c *stubConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// unread is the number of stream bytes the handler has not read yet.
func (c *stubConn) unread() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.r.Len()
}

// written is the number of bytes the handler has written.
func (c *stubConn) written() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Len()
}

// responses decodes everything the handler has written.
func (c *stubConn) responses(t *testing.T) []response {
	t.Helper()
	c.mu.Lock()
	fr := wire.NewReader(bytes.NewReader(bytes.Clone(c.w.Bytes())), respPayloadLen)
	c.mu.Unlock()
	var out []response
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reading responses: %v", err)
		}
		id, status, label, prob, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		out = append(out, response{id: id, status: status, label: label, prob: prob})
	}
}

// runHandleConn serves conn and fails the test unless handleConn returns
// within 10 s and closes the connection.
func runHandleConn(t *testing.T, s *Server, conn *stubConn) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.handleConn(conn)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handleConn still blocked after 10 s")
	}
	select {
	case <-conn.closed:
	default:
		t.Fatal("handleConn returned without closing the connection")
	}
}

// TestHandleConnWriteFailureDrains pipelines more classify requests than
// the response queue holds over a connection whose writes all fail: the
// handler must close the connection and drain every response, so it
// returns instead of leaving request goroutines blocked forever.
func TestHandleConnWriteFailureDrains(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var stream []byte
	for id := uint64(0); id < 600; id++ {
		stream = AppendRequest(stream, id, traces[int(id)%len(traces)])
	}
	runHandleConn(t, s, newStubConn(stream, true))
}

// TestHandleConnRefusesOverCapFrame sends a length prefix over the 1 MiB
// cap, then a valid request: the daemon must drop the connection at the
// prefix, so the request behind it is never answered.
func TestHandleConnRefusesOverCapFrame(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	stream := AppendRequest([]byte{0xff, 0xff, 0xff, 0xff}, 1, traces[0])
	conn := newStubConn(stream, false)
	runHandleConn(t, s, conn)
	if n := conn.written(); n != 0 {
		t.Fatalf("wrote %d bytes to a connection that sent an over-cap frame", n)
	}
}

// requestStream pipelines n classify requests, ids first to first+n-1.
func requestStream(traces [][]float64, first uint64, n int) []byte {
	var stream []byte
	for id := first; id < first+uint64(n); id++ {
		stream = AppendRequest(stream, id, traces[int(id)%len(traces)])
	}
	return stream
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestHandleConnEchoesBadRequestID sends a request whose declared sample
// count (3) disagrees with the samples it carries (2): it must be refused
// as a bad request under its own id, or a client matching answers by id
// would wait for it forever.
func TestHandleConnEchoesBadRequestID(t *testing.T) {
	model, prep, _ := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	frame := AppendRequest(nil, 7, []float64{1, 2, 3})
	frame = frame[:len(frame)-8]
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-wire.HeaderLen))
	conn := newStubConn(frame, false)
	conn.eof = true
	runHandleConn(t, s, conn)
	got := conn.responses(t)
	if len(got) != 1 || got[0].id != 7 || got[0].status != statusBadRequest {
		t.Fatalf("answers %+v, want one bad-request answer with id 7", got)
	}
}

// TestHandleConnAnswersBacklog puts 512 requests on one connection at
// once, as a host stall leaves them in the socket, with one P, the real
// model and the default 128-deep queue. The reader outruns the worker,
// but a request is refused only when the queue is still full after the
// worker had a turn, so every one is answered.
func TestHandleConnAnswersBacklog(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	const n = 512
	conn := newStubConn(requestStream(traces, 0, n), false)
	conn.eof = true
	runHandleConn(t, s, conn)
	got := conn.responses(t)
	refused := 0
	for _, r := range got {
		if r.status != statusOK {
			refused++
		}
	}
	if len(got) != n || refused != 0 {
		t.Fatalf("%d answers, %d not OK; want %d, all OK", len(got), refused, n)
	}
}

// TestRefusalIsFree parks the worker and fills the queue, then pipelines
// twice the in-flight cap of further requests: each is answered
// overloaded under its own id, no goroutine is started for any of them,
// and the refusal path allocates nothing.
func TestRefusalIsFree(t *testing.T) {
	model, prep, traces := testModel(t)
	base := runtime.NumGoroutine()
	s, err := newServer(Config{Model: model, Prep: prep, MaxBatch: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	blk := newBlockingSession()
	s.openSession = func() session { return blk }
	s.start()
	parked := make(chan error, 1)
	go func() {
		_, err := s.Classify(traces[0])
		parked <- err
	}()
	<-blk.entered // the worker is parked mid-score, the queue empty

	depth, refused := s.cfg.QueueDepth, 2*maxInFlight
	conn := newStubConn(requestStream(traces, 0, depth+refused), false)
	done := make(chan struct{})
	go func() {
		s.handleConn(conn)
		close(done)
	}()
	frameLen := wire.HeaderLen + respPayloadLen
	waitFor(t, "the refusals", func() bool { return conn.written() == refused*frameLen })
	// Beyond the baseline: the worker, the parked Classify, the handler
	// and its writer, however many requests were refused.
	if g := runtime.NumGoroutine(); g > base+4 {
		t.Errorf("%d goroutines with %d requests queued and %d refused, baseline %d",
			g, depth, refused, base)
	}
	for i, r := range conn.responses(t) {
		if want := uint64(depth + i); r.id != want || r.status != statusOverloaded {
			t.Fatalf("answer %d: id %d status %d, want id %d overloaded", i, r.id, r.status, want)
		}
	}

	cc := newConn()
	payload := payloadOf(t, AppendRequest(nil, 99, traces[0]))
	allocs := testing.AllocsPerRun(100, func() {
		s.request(cc, payload)
		if r := <-cc.out; r.status != statusOverloaded {
			t.Fatalf("status %d, want overloaded", r.status)
		}
		<-cc.credits
	})
	if allocs != 0 {
		t.Errorf("refusal path allocates %.1f times per request, want 0", allocs)
	}

	close(blk.release)
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	waitFor(t, "the queued answers", func() bool { return conn.written() == (refused+depth)*frameLen })
	conn.Close()
	<-done
	s.Stop()
	if n := s.queued.Load(); n != 0 {
		t.Fatalf("%d queue reservations outlive Stop", n)
	}
	waitFor(t, "the goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestAdmittedRequestAllocatesNothing drives admitted requests through a
// connection's admission path and the real model: once the slot pool is
// warm, decoding, preprocessing, scoring and answering allocate nothing.
func TestAdmittedRequestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops slots at random under the race detector")
	}
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	cc := newConn()
	payload := payloadOf(t, AppendRequest(nil, 99, traces[0]))
	allocs := testing.AllocsPerRun(100, func() {
		s.request(cc, payload)
		if r := <-cc.out; r.status != statusOK || r.id != 99 {
			t.Fatalf("answer %+v, want OK for id 99", r)
		}
		<-cc.credits
	})
	if allocs != 0 {
		t.Errorf("admitted request allocates %.1f times, want 0", allocs)
	}
}

// TestSlowReaderStallsOnlyItself pipelines three times the in-flight cap
// on a connection that never reads its answers. Its reader must stop at
// the cap, leaving the rest of its stream unread and starting nothing for
// it, while a second connection to the same server is answered in full.
// Once both close and the server stops, the goroutine count is back at
// its baseline.
func TestSlowReaderStallsOnlyItself(t *testing.T) {
	model, prep, traces := testModel(t)
	base := runtime.NumGoroutine()
	s, err := New(Config{Model: model, Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	slow := newStubConn(requestStream(traces, 0, 3*maxInFlight), false)
	slow.blockWrites = true
	slowDone := make(chan struct{})
	go func() {
		s.handleConn(slow)
		close(slowDone)
	}()
	<-slow.stalled
	// The slow reader stops once it holds every credit: its stream stops
	// shrinking, with frames left in it.
	last := -1
	waitFor(t, "the slow reader to stall", func() bool {
		u := slow.unread()
		if u == last && len(s.queue) == 0 {
			return true
		}
		last = u
		time.Sleep(10 * time.Millisecond)
		return false
	})
	if last == 0 {
		t.Fatal("the slow connection's reader read its whole stream past the in-flight cap")
	}
	// Beyond the baseline: the worker, the handler and its writer, and one
	// to spare; a goroutine per unanswered request would add 256.
	if g := runtime.NumGoroutine(); g > base+4 {
		t.Errorf("%d goroutines with the slow connection stalled, baseline %d", g, base)
	}

	const n = 64
	fast := newStubConn(requestStream(traces, 0, n), false)
	fast.eof = true
	runHandleConn(t, s, fast)
	got := fast.responses(t)
	if len(got) != n {
		t.Fatalf("the second connection got %d answers, want %d", len(got), n)
	}
	for _, r := range got {
		if r.status != statusOK {
			t.Fatalf("the second connection got status %d for request %d", r.status, r.id)
		}
	}

	slow.Close()
	select {
	case <-slowDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow connection's handler still blocked 10 s after Close")
	}
	s.Stop()
	waitFor(t, "the goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}
