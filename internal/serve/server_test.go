package serve

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/sim"
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

	s, err := New(Config{Model: model, Prep: prep, Workers: 2})
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
	s, err := newServer(Config{Model: model, Prep: prep, Workers: 1, MaxBatch: 2, QueueDepth: 4})
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
	s, err := newServer(Config{Model: model, Prep: prep, Workers: 1,
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
		s, err := New(Config{Model: model, Prep: prep, Workers: 2, QueueDepth: 16})
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
	}
}

// TestStopDrainsQueue checks graceful shutdown answers everything already
// admitted.
func TestStopDrainsQueue(t *testing.T) {
	model, prep, traces := testModel(t)
	s, err := New(Config{Model: model, Prep: prep, Workers: 1})
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
	s, err := New(Config{Model: model, Prep: prep, Workers: 1})
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
// block until Close, like a peer that stays connected. With failWrites
// every Write fails; otherwise writes succeed and are counted.
type stubConn struct {
	net.Conn   // nil: only the methods handleConn uses are implemented
	r          *bytes.Reader
	failWrites bool
	written    atomic.Int64
	closed     chan struct{}
	once       sync.Once
}

func newStubConn(stream []byte, failWrites bool) *stubConn {
	return &stubConn{r: bytes.NewReader(stream), failWrites: failWrites, closed: make(chan struct{})}
}

func (c *stubConn) Read(p []byte) (int, error) {
	if c.r.Len() > 0 {
		return c.r.Read(p)
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stubConn) Write(p []byte) (int, error) {
	if c.failWrites {
		return 0, errors.New("injected write failure")
	}
	c.written.Add(int64(len(p)))
	return len(p), nil
}

func (c *stubConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
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
	s, err := New(Config{Model: model, Prep: prep, Workers: 1})
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
	s, err := New(Config{Model: model, Prep: prep, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	stream := AppendRequest([]byte{0xff, 0xff, 0xff, 0xff}, 1, traces[0])
	conn := newStubConn(stream, false)
	runHandleConn(t, s, conn)
	if n := conn.written.Load(); n != 0 {
		t.Fatalf("wrote %d bytes to a connection that sent an over-cap frame", n)
	}
}
