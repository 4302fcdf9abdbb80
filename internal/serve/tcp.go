package serve

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Serve accepts connections on ln and answers classify requests against
// the server until the listener is closed. Each connection has a reader,
// which admits its requests through the same steps as Classify, and a
// writer goroutine, which writes the answers the reader and the worker
// hand it. No goroutine is started per request. Answers leave as they are
// ready, refusals at once and scores in the order they finish, so one
// slow classification never heads-of-line-blocks a pipelined connection.
func (s *Server) Serve(ln net.Listener) error {
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			s.handleConn(c)
		}()
	}
}

// maxInFlight caps the requests one connection may have unanswered. The
// reader takes a credit for each frame and the writer returns it once the
// answer is written, so the answer channel, sized to the cap, always has
// room: the worker never blocks on a connection, and a client that stops
// reading stalls only its own reader.
const maxInFlight = 256

// response is one answer on its way to a connection's writer.
type response struct {
	id     uint64
	status byte
	label  uint16
	prob   float32
}

// conn is one connection's answer path: out carries answers from the
// reader and the worker to the writer, and credits holds one token per
// unanswered request.
type conn struct {
	out     chan response
	credits chan struct{}
}

func newConn() *conn {
	return &conn{out: make(chan response, maxInFlight), credits: make(chan struct{}, maxInFlight)}
}

// handleConn reads request frames until the stream ends or breaks, then
// waits for every answer to be written before it closes the connection.
func (s *Server) handleConn(c net.Conn) {
	defer c.Close()
	cc := newConn()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		cc.write(c)
	}()

	fr := wire.NewReader(c, maxFrame)
	for {
		payload, err := fr.Next()
		if err != nil {
			break // EOF, a broken stream or an over-cap frame: drop the connection
		}
		s.request(cc, payload)
	}
	// Holding every credit means every answer has been written.
	for i := 0; i < maxInFlight; i++ {
		cc.credits <- struct{}{}
	}
	close(cc.out)
	<-writerDone
}

// request admits one request frame on its connection's reader. A
// malformed or refused request is answered at once with its 16-byte
// response; an admitted one is decoded into a pooled slot, preprocessed
// and queued, and the worker that scores it sends the answer.
func (s *Server) request(cc *conn, payload []byte) {
	cc.credits <- struct{}{}
	id, _, err := DecodeRequestHeader(payload)
	if err != nil {
		cc.out <- response{id: id, status: statusBadRequest}
		return
	}
	if !s.reserve() {
		cc.out <- response{id: id, status: statusOverloaded}
		return
	}
	sl := s.slots.Get().(*slot)
	sl.raw = DecodeSamples(payload, sl.raw)
	s.prepare(sl, sl.raw)
	sl.out, sl.id = cc.out, id
	s.submit(sl)
}

// write is the only goroutine that touches the socket's write side. It
// drains out until the reader closes it, returning each answer's credit,
// even after a write fails: the reader waits for every credit before it
// returns. A failed write closes the connection so the reader ends too.
func (cc *conn) write(c net.Conn) {
	bw := bufio.NewWriter(c)
	var frame []byte
	var werr error
	for r := range cc.out {
		if werr == nil {
			frame = AppendResponse(frame[:0], r.id, r.status, r.label, r.prob)
			_, werr = bw.Write(frame)
			// Flush when the queue momentarily drains so pipelined bursts
			// coalesce into few syscalls but a lone request is not delayed.
			if werr == nil && len(cc.out) == 0 {
				werr = bw.Flush()
			}
			if werr != nil {
				c.Close()
			}
		}
		<-cc.credits
	}
	if werr == nil {
		bw.Flush()
	}
}

// Client is a pipelining TCP client for the serving protocol. Classify is
// safe for concurrent use from many goroutines; requests share one
// connection and responses are matched back by id.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte

	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]chan clientResp
	readErr error
	closed  bool
}

type clientResp struct {
	res Result
	err error
}

// Dial connects a client to a serving daemon.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		pending: make(map[uint64]chan clientResp),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	fr := wire.NewReader(c.conn, respPayloadLen)
	for {
		payload, err := fr.Next()
		if err != nil {
			c.failAll(err)
			return
		}
		id, status, label, prob, err := DecodeResponse(payload)
		if err != nil {
			c.failAll(err)
			return
		}
		c.pmu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if ch != nil {
			ch <- clientResp{Result{Label: int(label), Prob: float64(prob)}, errStatus(status)}
		}
	}
}

func (c *Client) failAll(err error) {
	c.pmu.Lock()
	if c.closed {
		err = ErrServerClosed
	}
	c.readErr = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- clientResp{err: err}
	}
	c.pmu.Unlock()
}

// Classify sends one trace and blocks for its response. Server-side
// admission errors come back as the same sentinels the in-process path
// returns (ErrOverloaded, ErrDeadlineExceeded, ErrServerClosed).
func (c *Client) Classify(xs []float64) (Result, error) {
	id := c.nextID.Add(1)
	ch := make(chan clientResp, 1)
	c.pmu.Lock()
	if err := c.readErr; err != nil {
		c.pmu.Unlock()
		return Result{}, err
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	c.wbuf = AppendRequest(c.wbuf[:0], id, xs)
	_, err := c.bw.Write(c.wbuf)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return Result{}, err
	}
	r := <-ch
	return r.res, r.err
}

// Close tears the connection down; in-flight calls fail with
// ErrServerClosed.
func (c *Client) Close() error {
	c.pmu.Lock()
	c.closed = true
	c.pmu.Unlock()
	return c.conn.Close()
}
