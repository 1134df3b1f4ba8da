package xrd

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport carries the two file transactions over a simple
// length-prefixed binary protocol, standing in for the xrootd wire
// protocol:
//
//	request:  op byte ('W' or 'R'), u32 path length, path bytes,
//	          u64 payload length, payload bytes (writes only)
//	response: status byte (0 = ok), u64 payload length, payload bytes
//	          (file data for reads, error text on failure)
//
// A connection carries one exchange at a time.

const (
	opWrite = 'W'
	opRead  = 'R'
)

// maxPathLen bounds request paths to keep a malformed peer from forcing
// a huge allocation.
const maxPathLen = 4096

// maxPayload bounds a single file transaction (1 GiB).
const maxPayload = 1 << 30

// Server exposes a Handler over TCP.
type Server struct {
	handler Handler
	ln      net.Listener
	// ctx is handed to a context-aware handler with every transaction and
	// cancelled by Close, so a result read blocked on a chunk query the
	// worker will never finish ends with the server.
	ctx      context.Context
	cancel   context.CancelFunc
	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
	ErrorLog func(format string, args ...interface{}) // optional
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and begins
// accepting connections in a background goroutine.
func Serve(addr string, handler Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("xrd: listen %s: %w", addr, err)
	}
	s := &Server{handler: handler, ln: ln, conns: map[net.Conn]bool{}}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes open connections and cancels the
// transactions still inside the handler.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cancel()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.ErrorLog != nil {
		s.ErrorLog(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		op, path, payload, err := readRequest(r)
		if err != nil {
			if err != io.EOF {
				s.logf("xrd: bad request from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		var respData []byte
		var respErr error
		switch op {
		case opWrite:
			respErr = writeContext(s.handler, s.ctx, path, payload)
		case opRead:
			respData, respErr = readContext(s.handler, s.ctx, path)
		default:
			respErr = fmt.Errorf("xrd: unknown op %q", op)
		}
		if err := writeResponse(w, respData, respErr); err != nil {
			s.logf("xrd: write response to %s: %v", conn.RemoteAddr(), err)
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func readRequest(r *bufio.Reader) (op byte, path string, payload []byte, err error) {
	op, err = r.ReadByte()
	if err != nil {
		return 0, "", nil, err
	}
	var plen uint32
	if err := binary.Read(r, binary.BigEndian, &plen); err != nil {
		return 0, "", nil, err
	}
	if plen > maxPathLen {
		return 0, "", nil, fmt.Errorf("xrd: path length %d exceeds limit", plen)
	}
	pbuf := make([]byte, plen)
	if _, err := io.ReadFull(r, pbuf); err != nil {
		return 0, "", nil, err
	}
	var dlen uint64
	if err := binary.Read(r, binary.BigEndian, &dlen); err != nil {
		return 0, "", nil, err
	}
	if dlen > maxPayload {
		return 0, "", nil, fmt.Errorf("xrd: payload length %d exceeds limit", dlen)
	}
	data := make([]byte, dlen)
	if _, err := io.ReadFull(r, data); err != nil {
		return 0, "", nil, err
	}
	return op, string(pbuf), data, nil
}

func writeRequest(w *bufio.Writer, op byte, path string, payload []byte) error {
	if err := w.WriteByte(op); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint32(len(path))); err != nil {
		return err
	}
	if _, err := w.WriteString(path); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func writeResponse(w *bufio.Writer, data []byte, respErr error) error {
	status := byte(0)
	if respErr != nil {
		status = 1
		data = []byte(respErr.Error())
	}
	if err := w.WriteByte(status); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint64(len(data))); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

func readResponse(r *bufio.Reader) ([]byte, error) {
	status, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	var dlen uint64
	if err := binary.Read(r, binary.BigEndian, &dlen); err != nil {
		return nil, err
	}
	if dlen > maxPayload {
		return nil, fmt.Errorf("xrd: response length %d exceeds limit", dlen)
	}
	data := make([]byte, dlen)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, remoteError{msg: "xrd: remote error: " + string(data)}
	}
	return data, nil
}

// TCPEndpoint is an Endpoint that performs transactions against a
// remote Server. Each transaction runs on a connection of its own: it
// takes an idle one or dials one, and gives it back when the exchange
// ends. A result read blocks at the worker for the length of its job, so
// a transaction never waits on the wire for another's answer — a point
// query's dispatch, a kill or a health probe beside a scan's result read
// is on another connection.
type TCPEndpoint struct {
	name string
	addr string

	mu     sync.Mutex
	idle   []*tcpConn // at most maxIdle
	closed bool

	// Dial-failure backoff state.
	dialFails   int
	nextDial    time.Time
	lastDialErr error
}

// maxIdle caps the connections an endpoint keeps between transactions;
// concurrency is not capped: a transaction that finds none idle dials.
const maxIdle = 4

// tcpConn is one connection to the server, used by one transaction at a
// time.
type tcpConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Re-dial backoff: an endpoint whose peer is unreachable must not hammer
// it with a SYN per transaction (the czar-side failure detector alone
// probes every interval, and every queued chunk query would add its
// own). After a failed dial the endpoint refuses to dial until a capped,
// jittered exponential backoff elapses, failing fast with ErrBackoff
// instead. A successful dial resets it. Vars, not consts, so tests can
// compress time.
var (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffCap  = 5 * time.Second
)

// ErrBackoff marks a transaction refused because the endpoint's re-dial
// backoff window has not elapsed; the peer was not contacted.
var ErrBackoff = errors.New("xrd: dial suppressed by backoff")

// LaneCounters is the fabric's process-wide connection accounting: TCP
// dials, dial failures, and transactions failed fast by the re-dial
// backoff. The telemetry registry samples these at scrape time.
type LaneCounters struct {
	Dials             int64
	DialFailures      int64
	BackoffSuppressed int64
}

var laneCounters LaneCounters

// Counters snapshots the process-wide connection counters.
func Counters() LaneCounters {
	return LaneCounters{
		Dials:             atomic.LoadInt64(&laneCounters.Dials),
		DialFailures:      atomic.LoadInt64(&laneCounters.DialFailures),
		BackoffSuppressed: atomic.LoadInt64(&laneCounters.BackoffSuppressed),
	}
}

// tcpDial establishes a connection. A variable so tests can substitute a
// dialer that blackholes the SYN (never answers) and prove the
// transaction context still bounds the attempt.
var tcpDial = func(ctx context.Context, addr string) (net.Conn, error) {
	return (&net.Dialer{}).DialContext(ctx, "tcp", addr)
}

// NewTCPEndpoint creates an endpoint for a remote server. The name is
// the endpoint's cluster identity; addr its host:port.
func NewTCPEndpoint(name, addr string) *TCPEndpoint {
	return &TCPEndpoint{name: name, addr: addr}
}

// Name implements Endpoint.
func (t *TCPEndpoint) Name() string { return t.name }

// Close drops the idle connections; one in use is closed when its
// transaction ends.
func (t *TCPEndpoint) Close() error {
	t.mu.Lock()
	idle := t.idle
	t.idle, t.closed = nil, true
	t.mu.Unlock()
	for _, c := range idle {
		c.conn.Close()
	}
	return nil
}

// take hands a transaction an idle connection or, with none idle or when
// fresh is set, dials one bounded by ctx: a SYN-blackholed peer must fail
// the transaction within its deadline (e.g. the failure detector's
// HealthTimeout), not stall it for the OS dial timeout. The dial runs
// outside t.mu.
func (t *TCPEndpoint) take(ctx context.Context, fresh bool) (*tcpConn, error) {
	t.mu.Lock()
	if n := len(t.idle); n > 0 && !fresh {
		c := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return c, nil
	}
	if wait := time.Until(t.nextDial); t.dialFails > 0 && wait > 0 {
		err := fmt.Errorf("%w: %s for %v after %d failed dials: %v",
			ErrBackoff, t.addr, wait.Round(time.Millisecond), t.dialFails, t.lastDialErr)
		t.mu.Unlock()
		atomic.AddInt64(&laneCounters.BackoffSuppressed, 1)
		return nil, err
	}
	t.mu.Unlock()
	conn, err := tcpDial(ctx, t.addr)
	atomic.AddInt64(&laneCounters.Dials, 1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		atomic.AddInt64(&laneCounters.DialFailures, 1)
		t.dialFails++
		t.lastDialErr = err
		t.nextDial = time.Now().Add(dialBackoff(t.dialFails))
		return nil, fmt.Errorf("xrd: dial %s: %w", t.addr, err)
	}
	t.dialFails, t.lastDialErr, t.nextDial = 0, nil, time.Time{}
	return &tcpConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// release gives c back to the idle set if it is reusable, the endpoint
// open and the set not full, and closes it otherwise.
func (t *TCPEndpoint) release(c *tcpConn, reusable bool) {
	t.mu.Lock()
	keep := reusable && !t.closed && len(t.idle) < maxIdle
	if keep {
		t.idle = append(t.idle, c)
	}
	t.mu.Unlock()
	if !keep {
		c.conn.Close()
	}
}

// dialBackoff returns the wait before re-dial attempt fails+1: an
// exponential of the base, capped, jittered into [1/2, 1] of nominal so
// many endpoints backing off the same dead peer do not re-dial in
// lockstep.
func dialBackoff(fails int) time.Duration {
	shift := fails - 1
	if shift > 20 {
		shift = 20
	}
	d := dialBackoffBase << shift
	if d <= 0 || d > dialBackoffCap {
		d = dialBackoffCap
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

func (t *TCPEndpoint) roundTrip(ctx context.Context, op byte, path string, payload []byte) ([]byte, error) {
	// One retry, on a fresh connection, after a transport error: an idle
	// connection may have gone stale.
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		c, err := t.take(ctx, attempt > 0)
		if err != nil {
			return nil, err
		}
		data, reusable, err := c.transact(ctx, op, path, payload)
		t.release(c, reusable)
		if err == nil {
			return data, nil
		}
		if _, remote := err.(remoteError); remote {
			return nil, err
		}
		// A canceled context is surfaced as such (its AfterFunc kills the
		// conn mid-read, so the transport error is just the cancellation's
		// shadow).
		if cerr := ctx.Err(); cerr != nil {
			return nil, context.Cause(ctx)
		}
		if attempt > 0 || !repeatable(path) {
			return nil, err
		}
	}
}

// repeatable reports whether a transaction that failed in transport may be
// sent again. The failure does not say whether the server acted on the
// request before the connection died. A second delivery is harmless for
// every transaction but a row shipment: a read, a replacing write, and a
// query's chunk-query write, which finds the job its first delivery made. A
// /load batch appends, and one delivered twice is rows counted twice in
// every answer from then on.
func repeatable(path string) bool { return !strings.HasPrefix(path, "/load/t/") }

// transact performs one request/response exchange, honoring the
// context: its deadline bounds the conn I/O, and cancellation closes
// the conn out from under a blocked read (the xrootd wire protocol has
// no cancel frame; killing the stream is how a client abandons a
// transaction). The connection is reusable after a clean exchange or the
// server's error, unless the context's ending closed it — or is about to,
// which must not happen halfway through the next transaction on it.
func (c *tcpConn) transact(ctx context.Context, op byte, path string, payload []byte) (data []byte, reusable bool, err error) {
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	stop := context.AfterFunc(ctx, func() { c.conn.Close() })
	if err = writeRequest(c.w, op, path, payload); err == nil {
		data, err = readResponse(c.r)
	}
	_, remote := err.(remoteError)
	return data, stop() && (err == nil || remote), err
}

// remoteError distinguishes application-level failures (which should not
// trigger reconnects) from transport failures.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return e.msg }

// HandleWrite implements Handler by forwarding over TCP.
func (t *TCPEndpoint) HandleWrite(path string, data []byte) error {
	_, err := t.roundTrip(context.Background(), opWrite, path, data)
	return err
}

// HandleRead implements Handler by forwarding over TCP.
func (t *TCPEndpoint) HandleRead(path string) ([]byte, error) {
	return t.roundTrip(context.Background(), opRead, path, nil)
}

// HandleWriteContext implements ContextHandler over TCP.
func (t *TCPEndpoint) HandleWriteContext(ctx context.Context, path string, data []byte) error {
	_, err := t.roundTrip(ctx, opWrite, path, data)
	return err
}

// HandleReadContext implements ContextHandler over TCP.
func (t *TCPEndpoint) HandleReadContext(ctx context.Context, path string) ([]byte, error) {
	return t.roundTrip(ctx, opRead, path, nil)
}
