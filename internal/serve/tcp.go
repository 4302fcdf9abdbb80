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
// the server until the listener is closed. Each connection gets a reader
// that decodes frames and a single writer goroutine that serializes
// responses; requests run concurrently, so one slow classification never
// heads-of-line-blocks a pipelined connection.
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

func (s *Server) handleConn(c net.Conn) {
	defer c.Close()
	out := make(chan []byte, 256)
	var inflight sync.WaitGroup

	// Writer: the only goroutine that touches the socket's write side. It
	// drains out until the read side closes it, even after a write fails:
	// request goroutines send on out, and one that blocked there would
	// keep inflight.Wait, and so Serve, from ever returning. A failed write
	// closes the connection so the read loop ends too.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(c)
		var werr error
		for frame := range out {
			if werr != nil {
				continue
			}
			_, werr = bw.Write(frame)
			// Flush when the queue momentarily drains so pipelined bursts
			// coalesce into few syscalls but a lone request is not delayed.
			if werr == nil && len(out) == 0 {
				werr = bw.Flush()
			}
			if werr != nil {
				c.Close()
			}
		}
		if werr == nil {
			bw.Flush()
		}
	}()

	fr := wire.NewReader(c, maxFrame)
	for {
		payload, err := fr.Next()
		if err != nil {
			break // EOF, a broken stream or an over-cap frame: drop the connection
		}
		id, xs, err := DecodeRequest(payload, nil)
		if err != nil {
			out <- AppendResponse(nil, id, statusBadRequest, 0, 0)
			continue
		}
		inflight.Add(1)
		go func(id uint64, xs []float64) {
			defer inflight.Done()
			res, err := s.Classify(xs)
			frame := AppendResponse(make([]byte, 0, wire.HeaderLen+respPayloadLen),
				id, statusError(err), uint16(res.Label), float32(res.Prob))
			out <- frame
		}(id, xs)
	}
	inflight.Wait()
	close(out)
	<-writerDone
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
