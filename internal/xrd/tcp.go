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
	// worker will never finish ends with the server, not with the worker's
	// result timeout.
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
// remote Server over two persistent connections (re-dialed on failure):
// a data lane for dispatch writes, result reads and row shipments, and a
// control lane for the transactions a worker answers from its handler
// entry — kills, health probes, inventory audits. The split matters
// because result reads block for execution lengths while holding their
// lane: a cancel — whose whole purpose is prompt resource reclamation —
// must not queue behind another query's minutes-long read on a shared
// connection, and a /ping that did would time out and have the failure
// detector declare a busy worker dead.
type TCPEndpoint struct {
	name string
	data connLane
	ctrl connLane
}

// Re-dial backoff: a lane whose peer is unreachable must not hammer it
// with a SYN per transaction (the czar-side failure detector alone
// probes every interval, and every queued chunk query would add its
// own). After a failed dial the lane refuses to re-dial until a capped,
// jittered exponential backoff elapses, failing fast with ErrBackoff
// instead. A successful dial resets it. Vars, not consts, so tests can
// compress time.
var (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffCap  = 5 * time.Second
)

// ErrBackoff marks a transaction refused because the lane's re-dial
// backoff window has not elapsed; the peer was not contacted.
var ErrBackoff = errors.New("xrd: dial suppressed by backoff")

// LaneCounters is the fabric's process-wide connection accounting: TCP
// lane dials, dial failures, and transactions failed fast by the
// re-dial backoff. The telemetry registry samples these at scrape time.
type LaneCounters struct {
	Dials             int64
	DialFailures      int64
	BackoffSuppressed int64
}

var laneCounters LaneCounters

// Counters snapshots the process-wide lane counters.
func Counters() LaneCounters {
	return LaneCounters{
		Dials:             atomic.LoadInt64(&laneCounters.Dials),
		DialFailures:      atomic.LoadInt64(&laneCounters.DialFailures),
		BackoffSuppressed: atomic.LoadInt64(&laneCounters.BackoffSuppressed),
	}
}

// tcpDial establishes a lane's connection. A variable so tests can
// substitute a dialer that blackholes the SYN (never answers) and prove
// the transaction context still bounds the attempt.
var tcpDial = func(ctx context.Context, addr string) (net.Conn, error) {
	return (&net.Dialer{}).DialContext(ctx, "tcp", addr)
}

// connLane is one serialized connection to the server.
type connLane struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// Dial-failure backoff state, guarded by mu.
	dialFails   int
	nextDial    time.Time
	lastDialErr error
}

// NewTCPEndpoint creates an endpoint for a remote server. The name is
// the endpoint's cluster identity; addr its host:port.
func NewTCPEndpoint(name, addr string) *TCPEndpoint {
	return &TCPEndpoint{name: name, data: connLane{addr: addr}, ctrl: connLane{addr: addr}}
}

// Name implements Endpoint.
func (t *TCPEndpoint) Name() string { return t.name }

// Close drops the cached connections.
func (t *TCPEndpoint) Close() error {
	err := t.data.close()
	if cerr := t.ctrl.close(); err == nil {
		err = cerr
	}
	return err
}

// laneFor routes control-plane transactions (kills, health probes,
// inventory audits) onto the control lane and everything else onto the
// data lane.
func (t *TCPEndpoint) laneFor(path string) *connLane {
	if strings.HasPrefix(path, "/cancel/") || path == PingPath || path == InventoryPath {
		return &t.ctrl
	}
	return &t.data
}

func (l *connLane) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		err := l.conn.Close()
		l.conn = nil
		return err
	}
	return nil
}

func (l *connLane) ensureConn(ctx context.Context) error {
	if l.conn != nil {
		return nil
	}
	if l.dialFails > 0 {
		if wait := time.Until(l.nextDial); wait > 0 {
			atomic.AddInt64(&laneCounters.BackoffSuppressed, 1)
			return fmt.Errorf("%w: %s for %v after %d failed dials: %v",
				ErrBackoff, l.addr, wait.Round(time.Millisecond), l.dialFails, l.lastDialErr)
		}
	}
	// The dial is bounded by the transaction context: a SYN-blackholed
	// peer must fail this transaction within its deadline (e.g. the
	// failure detector's HealthTimeout), not stall the lane — and every
	// transaction queued on its mutex — for the OS dial timeout.
	conn, err := tcpDial(ctx, l.addr)
	atomic.AddInt64(&laneCounters.Dials, 1)
	if err != nil {
		atomic.AddInt64(&laneCounters.DialFailures, 1)
		l.dialFails++
		l.lastDialErr = err
		l.nextDial = time.Now().Add(dialBackoff(l.dialFails))
		return fmt.Errorf("xrd: dial %s: %w", l.addr, err)
	}
	l.dialFails, l.lastDialErr, l.nextDial = 0, nil, time.Time{}
	l.conn = conn
	l.r = bufio.NewReader(conn)
	l.w = bufio.NewWriter(conn)
	return nil
}

// dialBackoff returns the wait before re-dial attempt fails+1: an
// exponential of the base, capped, jittered into [1/2, 1] of nominal so
// many lanes backing off the same dead peer do not re-dial in lockstep.
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

func (l *connLane) roundTrip(ctx context.Context, op byte, path string, payload []byte) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// One reconnect attempt on a stale cached connection.
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		if err := l.ensureConn(ctx); err != nil {
			return nil, err
		}
		data, err := l.transact(ctx, op, path, payload)
		if err == nil {
			return data, nil
		}
		if _, remote := err.(remoteError); remote {
			return nil, err
		}
		// Transport error: drop the connection, if transact has not. A
		// canceled context is surfaced as such (its AfterFunc kills the conn
		// mid-read, so the transport error is just the cancellation's
		// shadow).
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
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
// transaction).
func (l *connLane) transact(ctx context.Context, op byte, path string, payload []byte) (data []byte, err error) {
	conn := l.conn
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
		defer conn.SetDeadline(time.Time{})
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		defer func() {
			if !stop() {
				// The context ended as the exchange completed: whatever the
				// answer — whole, or the server's error — the connection is
				// closed or about to be, and must not be there for the
				// lane's next transaction to die on halfway.
				l.conn = nil
			}
		}()
	}
	if err := writeRequest(l.w, op, path, payload); err != nil {
		return nil, err
	}
	return readResponse(l.r)
}

// remoteError distinguishes application-level failures (which should not
// trigger reconnects) from transport failures.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return e.msg }

// HandleWrite implements Handler by forwarding over TCP.
func (t *TCPEndpoint) HandleWrite(path string, data []byte) error {
	_, err := t.laneFor(path).roundTrip(context.Background(), opWrite, path, data)
	return err
}

// HandleRead implements Handler by forwarding over TCP.
func (t *TCPEndpoint) HandleRead(path string) ([]byte, error) {
	return t.laneFor(path).roundTrip(context.Background(), opRead, path, nil)
}

// HandleWriteContext implements ContextHandler over TCP.
func (t *TCPEndpoint) HandleWriteContext(ctx context.Context, path string, data []byte) error {
	_, err := t.laneFor(path).roundTrip(ctx, opWrite, path, data)
	return err
}

// HandleReadContext implements ContextHandler over TCP.
func (t *TCPEndpoint) HandleReadContext(ctx context.Context, path string) ([]byte, error) {
	return t.laneFor(path).roundTrip(ctx, opRead, path, nil)
}
