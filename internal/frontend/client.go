package frontend

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/sqlengine"
)

// Client speaks the streaming protocol: one connection, one query session
// at a time, rows decoded as the server streams them.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	// wmu guards the write side only: a kill frame (from a context
	// watcher) may race the session loop's query/ping frames.
	wmu sync.Mutex
	w   *bufio.Writer

	// mu serializes sessions: Query holds the connection until its
	// Stream is drained or closed.
	mu sync.Mutex
}

// Dial connects and performs the handshake as user against db.
func Dial(addr, user, db string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontend: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := c.send(encodeHandshake(user, db)); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := readFrame(c.r)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("frontend: handshake: %w", err)
	}
	if string(reply) != hsReply {
		conn.Close()
		return nil, fmt.Errorf("frontend: handshake rejected: %s", bytes.TrimPrefix(reply, []byte{tagErr}))
	}
	return c, nil
}

// Close drops the connection; the server kills any in-flight query.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeFrame(c.w, frame); err != nil {
		return err
	}
	return c.w.Flush()
}

// Kill asks the server to cancel the connection's in-flight query; the
// killed query's Stream ends with an error.
func (c *Client) Kill() error { return c.send([]byte{tagKill}) }

// Ping round-trips a ping frame. Only legal between queries.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send([]byte{tagPing}); err != nil {
		return err
	}
	f, err := readFrame(c.r)
	if err != nil {
		return err
	}
	if len(f) != 1 || f[0] != tagPing {
		return fmt.Errorf("frontend: bad ping reply")
	}
	return nil
}

// Query starts one query session. It returns as soon as the column
// header (or an immediate error) arrives — before any row exists — and
// the Stream yields rows as the server merges them. Canceling ctx
// sends a kill frame, failing the stream promptly. The connection is
// held until the Stream is drained or closed.
func (c *Client) Query(ctx context.Context, sql string) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if err := c.send(append([]byte{tagQuery}, sql...)); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	st := &Stream{c: c, ctx: ctx}
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		st.stopWatch = func() { close(watchDone) }
		go func() {
			select {
			case <-ctx.Done():
				c.Kill()
			case <-watchDone:
			}
		}()
	}
	f, err := st.read()
	if err != nil {
		st.finish(err)
		return nil, err
	}
	switch f[0] {
	case tagCols:
		cols, err := decodeCols(f[1:])
		if err != nil {
			st.finish(err)
			return nil, err
		}
		st.cols = cols
		return st, nil
	case tagErr:
		err := serverError(f[1:])
		st.finish(nil)
		return nil, err
	default:
		err := fmt.Errorf("frontend: unexpected frame tag %q for header", f[0])
		st.finish(err)
		return nil, err
	}
}

// serverError wraps an E-frame message, preserving the busy prefix so
// callers can distinguish admission shedding from query failure.
func serverError(msg []byte) error {
	return fmt.Errorf("frontend: server error: %s", msg)
}

// IsBusy reports whether err is an admission-control rejection (the
// frontend shed the query instead of running it).
func IsBusy(err error) bool {
	return err != nil && strings.Contains(err.Error(), "busy: ")
}

// Stream is one in-flight query's result: columns known up front, rows
// arriving as the server streams them.
type Stream struct {
	c         *Client
	ctx       context.Context
	cols      []string
	stopWatch func()

	// The rows of the last row frame not yet handed out: left of them,
	// their cells in order in slab.
	slab []sqlengine.Value
	left int

	done  bool
	nrows int64
	stats DoneStats
	err   error
}

// Cols returns the result column names (available before any row).
func (s *Stream) Cols() []string { return s.cols }

func (s *Stream) read() ([]byte, error) {
	f, err := readFrame(s.c.r)
	if err != nil {
		return nil, err
	}
	if len(f) == 0 {
		return nil, fmt.Errorf("frontend: empty frame")
	}
	return f, nil
}

// finish releases the connection for the next query; with a non-nil
// err the connection is poisoned mid-stream and closed instead.
func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	if s.stopWatch != nil {
		s.stopWatch()
	}
	if err != nil {
		s.err = err
		s.c.conn.Close()
	}
	s.c.mu.Unlock()
}

// Next returns the next row, blocking until the server streams one; ok
// is false at end of stream — then Err distinguishes success from
// failure (an error frame is legal mid-stream, after any number of
// rows). The row is the caller's own: the stream never writes to it
// again.
func (s *Stream) Next() (row []sqlengine.Value, ok bool) {
	for s.left == 0 {
		if !s.nextFrame() {
			return nil, false
		}
	}
	n := len(s.cols)
	row, s.slab = s.slab[:n:n], s.slab[n:]
	s.left--
	return row, true
}

// nextFrame reads the next frame: a row frame's rows are decoded for Next
// to hand out; any other frame ends the stream, and so does a failure.
// false means the stream has ended.
func (s *Stream) nextFrame() bool {
	if s.done {
		return false
	}
	f, err := s.read()
	if err != nil {
		s.finish(err)
		return false
	}
	switch f[0] {
	case tagRow:
		if s.slab, s.left, err = decodeBatch(f[1:], len(s.cols)); err != nil {
			s.finish(err)
			return false
		}
		return true
	case tagDone:
		n, st, err := decodeDone(f[1:])
		if err != nil {
			s.finish(err)
			return false
		}
		s.nrows = n
		s.stats = st
		s.finish(nil)
		return false
	case tagErr:
		serr := serverError(f[1:])
		// A server-reported error ends the session cleanly: the
		// connection stays usable for the next query.
		s.err = serr
		s.finish(nil)
		return false
	default:
		s.finish(fmt.Errorf("frontend: unexpected frame tag %q in stream", f[0]))
		return false
	}
}

// Err returns the stream's terminal error, if any, once Next returned
// false.
func (s *Stream) Err() error { return s.err }

// RowCount returns the server-reported row count after a clean end of
// stream.
func (s *Stream) RowCount() int64 { return s.nrows }

// Stats returns the server-reported per-query accounting after a clean
// end of stream; zero against servers that predate the trailer stats.
func (s *Stream) Stats() DoneStats { return s.stats }

// Close abandons the stream: if rows are still in flight it kills the
// query and drains the remaining frames so the connection is reusable.
func (s *Stream) Close() error {
	if s.done {
		return nil
	}
	s.c.Kill()
	for {
		f, err := s.read()
		if err != nil {
			s.finish(err)
			return nil
		}
		switch f[0] {
		case tagDone, tagErr:
			s.finish(nil)
			return nil
		}
	}
}
