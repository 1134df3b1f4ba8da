package frontend

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"repro/internal/czar"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
)

// Backend is the czar's session API, the one thing the frontend knows
// of it: *czar.Czar implements it; test fakes mint equivalent handles
// with czar.NewQueryHandle. Every statement but SHOW FRONTEND goes to
// Submit, the czar's management statements included.
type Backend interface {
	// Submit starts an asynchronous query session. The context governs
	// the whole query: canceling it kills the query end-to-end (czar
	// registry, fabric transactions, worker scan lanes).
	Submit(ctx context.Context, sql string, opts czar.Options) (*czar.Query, error)
}

// Config bounds the frontend's concurrency (see admission).
type Config struct {
	// MaxSessions caps concurrently executing query sessions across all
	// connections and users; 0 means unlimited.
	MaxSessions int
	// PerUserSessions caps one user's concurrent sessions (admitted or
	// queued); 0 means unlimited.
	PerUserSessions int
	// SessionQueueDepth bounds the FIFO queue of sessions waiting for a
	// global slot; a full queue sheds with "busy". 0 means no queue:
	// anything over MaxSessions sheds immediately.
	SessionQueueDepth int
	// Metrics, when set, exports the frontend's admission series
	// (qserv_frontend_*) into the registry.
	Metrics *telemetry.Registry
}

// Server serves the streaming protocol over one TCP listener in front of
// one backend.
type Server struct {
	b      Backend
	adm    *admission
	ln     net.Listener
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// Serve starts a frontend on addr over a backend, which must not be nil.
func Serve(addr string, cfg Config, b Backend) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("frontend: no backend")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontend: listen: %w", err)
	}
	s := &Server{
		b:     b,
		adm:   newAdmission(cfg.MaxSessions, cfg.PerUserSessions, cfg.SessionQueueDepth),
		ln:    ln,
		conns: map[net.Conn]bool{},
	}
	s.registerMetrics(cfg.Metrics)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// registerMetrics exports the admission controller into the registry;
// every series samples the same stats snapshot at scrape time.
func (s *Server) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	admVal := func(pick func(st Stats) int64) func() int64 {
		return func() int64 { return pick(s.adm.stats()) }
	}
	reg.GaugeFunc("qserv_frontend_active_sessions", "query sessions currently admitted",
		admVal(func(st Stats) int64 { return int64(st.Active) }))
	reg.GaugeFunc("qserv_frontend_queued_sessions", "query sessions waiting for a slot",
		admVal(func(st Stats) int64 { return int64(st.Queued) }))
	reg.GaugeFunc("qserv_frontend_session_users", "distinct users with admitted or queued sessions",
		admVal(func(st Stats) int64 { return int64(st.Users) }))
	reg.CounterFunc("qserv_frontend_admissions_total", "lifetime sessions admitted",
		admVal(func(st Stats) int64 { return st.Admitted }))
	reg.CounterFunc("qserv_frontend_queued_total", "lifetime sessions that had to queue",
		admVal(func(st Stats) int64 { return st.EverQueued }))
	reg.CounterFunc("qserv_frontend_shed_total", "lifetime sessions rejected with busy",
		admVal(func(st Stats) int64 { return st.Shed }))
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns the admission controller's current snapshot.
func (s *Server) Stats() Stats { return s.adm.stats() }

// Close stops the server, dropping every connection (which kills the
// connections' in-flight queries through their contexts).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
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

// serveConn reads the connection's first frame, which must be a
// handshake of this protocol version; anything else gets one E frame and
// the connection closes.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	first, err := readFrame(r)
	if err != nil {
		return
	}
	user, db, err := parseHandshake(first)
	if err != nil {
		writeFrame(w, append([]byte{tagErr}, err.Error()...))
		w.Flush()
		return
	}
	_ = db // reserved: the engine has a single database today
	if err := writeFrame(w, []byte(hsReply)); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}
	s.serveSession(r, w, user)
}

// ---------- sessions ----------

// request is one client frame the reader goroutine hands to the session
// loop (kill frames are handled inline by the reader instead).
type request struct {
	kind byte
	sql  string
}

// serveSession runs a connection's session. A dedicated reader
// goroutine owns the socket's read side so the connection stays
// responsive while a query streams: kill frames cancel the in-flight query inline, and a read
// error — the client dropped — cancels the per-connection context,
// which parents every query context, so a disconnect kills the
// in-flight query end-to-end (czar registry, fabric, worker lanes)
// without any extra bookkeeping.
func (s *Server) serveSession(r *bufio.Reader, w *bufio.Writer, user string) {
	connCtx, connCancel := context.WithCancelCause(context.Background())
	defer connCancel(fmt.Errorf("frontend: connection closed"))

	var kill atomic.Pointer[context.CancelCauseFunc]
	reqs := make(chan request, 8)
	go func() {
		defer close(reqs)
		for {
			f, err := readFrame(r)
			if err != nil {
				connCancel(fmt.Errorf("frontend: client disconnected: %w", err))
				return
			}
			if len(f) == 0 {
				connCancel(fmt.Errorf("frontend: empty frame"))
				return
			}
			switch f[0] {
			case tagKill:
				if c := kill.Load(); c != nil {
					(*c)(context.Canceled)
				}
			case tagQuery, tagPing:
				select {
				case reqs <- request{kind: f[0], sql: string(f[1:])}:
				case <-connCtx.Done():
					return
				}
			default:
				connCancel(fmt.Errorf("frontend: bad frame tag %q", f[0]))
				return
			}
		}
	}()

	for {
		var req request
		var ok bool
		select {
		case req, ok = <-reqs:
			if !ok {
				return
			}
		case <-connCtx.Done():
			return
		}
		switch req.kind {
		case tagPing:
			if writeFrame(w, []byte{tagPing}) != nil || w.Flush() != nil {
				return
			}
		case tagQuery:
			if !s.runQuery(connCtx, w, user, req.sql, &kill) {
				return
			}
		}
	}
}

// runQuery runs one query session and streams its result; false means
// the connection is unusable (write failed) and must close.
func (s *Server) runQuery(connCtx context.Context, w *bufio.Writer, user, sql string, kill *atomic.Pointer[context.CancelCauseFunc]) bool {
	sendErr := func(err error) bool {
		return writeFrame(w, append([]byte{tagErr}, err.Error()...)) == nil && w.Flush() == nil
	}

	if isShowFrontend(sql) {
		cols, rows := s.showFrontend()
		b, err := rowcodec.EncodeBatch(rows)
		if err != nil {
			return sendErr(err)
		}
		if writeFrame(w, encodeCols(cols)) != nil {
			return false
		}
		if err := writeBatch(w, b, maxFrame); err != nil {
			return sendErr(err)
		}
		return writeFrame(w, encodeDone(int64(len(rows)), DoneStats{})) == nil && w.Flush() == nil
	}

	// The czar's management statements are cheap introspection and kills;
	// they bypass admission, as SHOW FRONTEND does, so an operator can
	// still see and relieve a saturated frontend.
	if !czar.IsManagement(sql) {
		if err := s.adm.acquire(user, connCtx.Done()); err != nil {
			return sendErr(err)
		}
		defer s.adm.release(user)
	}

	qctx, qcancel := context.WithCancelCause(connCtx)
	defer qcancel(nil)
	kill.Store(&qcancel)
	defer kill.Store(nil)

	q, err := s.b.Submit(qctx, sql, czar.Options{})
	if err != nil {
		return sendErr(err)
	}
	cols, err := q.Columns(qctx)
	if err != nil {
		return sendErr(err)
	}
	if writeFrame(w, encodeCols(cols)) != nil {
		return false
	}
	// Stream rows as the merge pipeline produces them, flushing only
	// before parking on a slow producer — first-row latency tracks the
	// first chunk's merge, not the scan's completion, without a syscall
	// per batch when batches are already buffered. The stream hands its
	// rows over a batch at a time, encoded, and a row frame's body is that
	// batch: a pass-through chunk result leaves as the bytes its worker
	// wrote, behind one frame header.
	var rows int64
	it := q.Rows()
	for {
		if !it.Ready() && w.Flush() != nil {
			return false
		}
		b, ok := it.NextBatch()
		if !ok {
			break
		}
		if err := writeBatch(w, b, maxFrame); err != nil {
			// A row over the frame limit fails the query; a failed write
			// fails the error frame too, and the connection closes.
			return sendErr(err)
		}
		rows += int64(b.Len())
	}
	// The rows are gone: Wait, after Rows, reports how the query ended.
	res, err := q.Wait(context.Background())
	if err != nil {
		// Mid-stream failure (worker died, query killed, client quota
		// deadline): the error frame is legal after any number of row
		// frames, so a long scan's failure is never a silent truncation.
		return sendErr(err)
	}
	st := DoneStats{
		ElapsedNS:   res.Elapsed.Nanoseconds(),
		Chunks:      int64(res.ChunksDispatched),
		BytesMerged: res.BytesMerged,
	}
	return writeFrame(w, encodeDone(rows, st)) == nil && w.Flush() == nil
}

// ---------- SHOW FRONTEND ----------

// isShowFrontend reports whether sql is SHOW FRONTEND, in any case and
// spacing, with an optional ';'. It allocates nothing.
func isShowFrontend(sql string) bool {
	s := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	i := strings.IndexFunc(s, unicode.IsSpace)
	return i > 0 && strings.EqualFold(s[:i], "SHOW") && strings.EqualFold(strings.TrimSpace(s[i:]), "FRONTEND")
}

// showFrontend reports the admission controller's configuration and
// counters: the one statement the frontend answers itself.
func (s *Server) showFrontend() ([]string, []sqlengine.Row) {
	st := s.adm.stats()
	unlim := func(n int) sqlengine.Value {
		if n <= 0 {
			return "unlimited"
		}
		return int64(n)
	}
	return []string{"MaxSessions", "PerUserSessions", "SessionQueueDepth", "Active", "Queued", "Users", "Admitted", "EverQueued", "Shed"},
		[]sqlengine.Row{{
			unlim(st.MaxSessions), unlim(st.PerUser), int64(st.QueueDepth),
			int64(st.Active), int64(st.Queued), int64(st.Users),
			st.Admitted, st.EverQueued, st.Shed,
		}}
}
