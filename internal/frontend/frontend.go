package frontend

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/czar"
	"repro/internal/member"
	"repro/internal/qcache"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
)

// Backend is the Submit-shaped streaming entry point the frontend
// drives: the czar's session API. *czar.Czar implements it directly;
// test fakes mint equivalent handles with czar.NewQueryHandle.
type Backend interface {
	// Submit starts an asynchronous query session. The context governs
	// the whole query: canceling it kills the query end-to-end (czar
	// registry, fabric transactions, worker scan lanes).
	Submit(ctx context.Context, sql string, opts czar.Options) (*czar.Query, error)
	// Running lists the backend's in-flight queries.
	Running() []czar.QueryInfo
	// Kill cancels an in-flight query by id.
	Kill(id int64) bool
	// ClusterStatus reports cluster availability; ok is false when the
	// backend has no membership subsystem wired.
	ClusterStatus() (member.Status, bool)
	// CacheStats reports the backend's result-cache counters; ok is
	// false when no result cache is installed.
	CacheStats() (qcache.Stats, bool)
	// MetricsText renders the backend's metrics registry in Prometheus
	// text exposition format; ok is false when telemetry is disabled.
	MetricsText() (string, bool)
	// Profile renders a finished query's retained span trace; ok is
	// false when the id was never traced or has been evicted.
	Profile(id int64) (string, bool)
	// Profiles lists retained trace summaries, newest first, up to n.
	Profiles(n int) []string
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

// Server serves the streaming protocol over one TCP listener, round-robining query sessions across backends (section 7.6's
// multi-master load balancing).
type Server struct {
	backends []Backend
	adm      *admission
	next     atomic.Int64
	ln       net.Listener
	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
}

// Serve starts a frontend on addr over one or more backends.
func Serve(addr string, cfg Config, backends ...Backend) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("frontend: no backends")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontend: listen: %w", err)
	}
	s := &Server{
		backends: backends,
		adm:      newAdmission(cfg.MaxSessions, cfg.PerUserSessions, cfg.SessionQueueDepth),
		ln:       ln,
		conns:    map[net.Conn]bool{},
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

// pick round-robins the next query session across backends.
func (s *Server) pick() Backend {
	return s.backends[int(s.next.Add(1)-1)%len(s.backends)]
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

	// Admin commands are cheap introspection; they bypass admission so
	// an operator can still see a saturated frontend.
	if cols, rows, handled, err := s.admin(sql); handled {
		if err != nil {
			return sendErr(err)
		}
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

	if err := s.adm.acquire(user, connCtx.Done()); err != nil {
		return sendErr(err)
	}
	defer s.adm.release(user)

	qctx, qcancel := context.WithCancelCause(connCtx)
	defer qcancel(nil)
	kill.Store(&qcancel)
	defer kill.Store(nil)

	q, err := s.pick().Submit(qctx, sql, czar.Options{})
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
	// The rows are gone; Outcome reports how the query ended without
	// boxing them for a Wait nobody reads.
	res, err := q.Outcome(context.Background())
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

// ---------- admin commands ----------

// admin intercepts the query-management commands — `SHOW PROCESSLIST`,
// `SHOW WORKERS`, `SHOW REPAIRS`, `SHOW FRONTEND`, `SHOW METRICS`,
// `SHOW PROFILE [<id>]`, and `KILL <id>` — before backend dispatch,
// since they address every czar behind the frontend, not whichever the
// round-robin lands on. handled is false for ordinary SQL.
func (s *Server) admin(sql string) (cols []string, rows []sqlengine.Row, handled bool, err error) {
	fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	switch {
	case len(fields) == 2 && strings.EqualFold(fields[0], "SHOW") && strings.EqualFold(fields[1], "WORKERS"):
		// Worker health comes from whichever backend has the
		// availability subsystem wired; backends share one cluster, so
		// the first wired view is the view.
		st, ok := s.clusterStatus()
		if !ok {
			return nil, nil, true, fmt.Errorf("frontend: no availability subsystem is wired (SHOW WORKERS needs a czar with membership)")
		}
		cols = []string{"Worker", "State", "Chunks", "Misses", "LastSeen", "LastError"}
		for _, w := range st.Workers {
			lastSeen := "never"
			if !w.LastSeen.IsZero() {
				lastSeen = time.Since(w.LastSeen).Round(time.Millisecond).String() + " ago"
			}
			rows = append(rows, []sqlengine.Value{
				w.Name, w.State.String(), int64(w.Chunks), int64(w.Misses), lastSeen, w.LastErr,
			})
		}
		return cols, rows, true, nil
	case len(fields) == 2 && strings.EqualFold(fields[0], "SHOW") && strings.EqualFold(fields[1], "REPAIRS"):
		st, ok := s.clusterStatus()
		if !ok {
			return nil, nil, true, fmt.Errorf("frontend: no availability subsystem is wired (SHOW REPAIRS needs a czar with membership)")
		}
		cols = []string{"PlacementEpoch", "ChunksRepaired", "ChunksHealed", "ChunksPending", "TablesCopied", "BytesCopied", "LastError"}
		rows = append(rows, []sqlengine.Value{
			st.Epoch, int64(st.Repair.ChunksRepaired), int64(st.Repair.ChunksHealed), int64(st.Repair.ChunksPending),
			int64(st.Repair.TablesCopied), st.Repair.BytesCopied, st.Repair.LastError,
		})
		return cols, rows, true, nil
	case len(fields) == 2 && strings.EqualFold(fields[0], "SHOW") && strings.EqualFold(fields[1], "FRONTEND"):
		st := s.adm.stats()
		unlim := func(n int) sqlengine.Value {
			if n <= 0 {
				return "unlimited"
			}
			return int64(n)
		}
		cols = []string{"MaxSessions", "PerUserSessions", "SessionQueueDepth", "Active", "Queued", "Users", "Admitted", "EverQueued", "Shed"}
		rows = append(rows, []sqlengine.Value{
			unlim(st.MaxSessions), unlim(st.PerUser), int64(st.QueueDepth),
			int64(st.Active), int64(st.Queued), int64(st.Users),
			st.Admitted, st.EverQueued, st.Shed,
		})
		return cols, rows, true, nil
	case len(fields) == 2 && strings.EqualFold(fields[0], "SHOW") && strings.EqualFold(fields[1], "CACHE"):
		// One row per cache-enabled backend: each czar owns a private
		// result cache, so counters are per-czar, not cluster-global.
		cols = []string{"Czar", "Hits", "Misses", "HitRate", "Entries", "Bytes", "MaxBytes", "Evictions", "Invalidations", "Epoch"}
		for bi, b := range s.backends {
			cs, ok := b.CacheStats()
			if !ok {
				continue
			}
			rate := "0%"
			if lookups := cs.Hits + cs.Misses; lookups > 0 {
				rate = fmt.Sprintf("%.1f%%", 100*float64(cs.Hits)/float64(lookups))
			}
			rows = append(rows, []sqlengine.Value{
				int64(bi), cs.Hits, cs.Misses, rate, int64(cs.Entries),
				cs.Bytes, cs.MaxBytes, cs.Evictions, cs.Invalidations, cs.Epoch,
			})
		}
		if len(rows) == 0 {
			return nil, nil, true, fmt.Errorf("frontend: no result cache is enabled (SHOW CACHE needs a czar with ResultCacheBytes > 0)")
		}
		return cols, rows, true, nil
	case len(fields) == 2 && strings.EqualFold(fields[0], "SHOW") && strings.EqualFold(fields[1], "METRICS"):
		// One row per exposition line; backends typically share one
		// cluster-wide registry, so the first wired backend's view is
		// the view.
		for _, b := range s.backends {
			text, ok := b.MetricsText()
			if !ok {
				continue
			}
			cols = []string{"Metric"}
			for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
				rows = append(rows, []sqlengine.Value{line})
			}
			return cols, rows, true, nil
		}
		return nil, nil, true, fmt.Errorf("frontend: telemetry is disabled (SHOW METRICS needs a czar with a metrics registry)")
	case (len(fields) == 2 || len(fields) == 3) && strings.EqualFold(fields[0], "SHOW") && strings.EqualFold(fields[1], "PROFILE"):
		if len(fields) == 2 {
			// Without an id: list the retained traces, newest first.
			cols = []string{"RecentQueries"}
			for _, b := range s.backends {
				for _, line := range b.Profiles(32) {
					rows = append(rows, []sqlengine.Value{line})
				}
			}
			if len(rows) == 0 {
				return nil, nil, true, fmt.Errorf("frontend: no retained traces (SHOW PROFILE needs tracing enabled and at least one finished query)")
			}
			return cols, rows, true, nil
		}
		id, perr := strconv.ParseInt(fields[2], 10, 64)
		if perr != nil {
			return nil, nil, true, fmt.Errorf("frontend: bad SHOW PROFILE id %q", fields[2])
		}
		for _, b := range s.backends {
			text, ok := b.Profile(id)
			if !ok {
				continue
			}
			cols = []string{"Profile"}
			for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
				rows = append(rows, []sqlengine.Value{line})
			}
			return cols, rows, true, nil
		}
		return nil, nil, true, fmt.Errorf("frontend: no retained trace for query %d (evicted, never traced, or telemetry disabled)", id)
	case len(fields) == 2 && strings.EqualFold(fields[0], "SHOW") && strings.EqualFold(fields[1], "PROCESSLIST"):
		cols = []string{"Id", "Czar", "Class", "Time", "Chunks", "Rows", "Info"}
		for bi, b := range s.backends {
			for _, qi := range b.Running() {
				rows = append(rows, []sqlengine.Value{
					qi.ID,
					int64(bi),
					qi.Class.String(),
					time.Since(qi.Started).Round(time.Millisecond).String(),
					fmt.Sprintf("%d/%d", qi.ChunksCompleted, qi.ChunksTotal),
					qi.RowsMerged,
					qi.SQL,
				})
			}
		}
		return cols, rows, true, nil
	case len(fields) == 2 && strings.EqualFold(fields[0], "KILL"):
		// Czar-local query ids can collide across backends; an
		// explicit `KILL <czar>:<id>` targets one backend, and a bare
		// id is honored only when exactly one backend runs it.
		if czarStr, idStr, qualified := strings.Cut(fields[1], ":"); qualified {
			bi, berr := strconv.Atoi(czarStr)
			id, perr := strconv.ParseInt(idStr, 10, 64)
			if berr != nil || perr != nil || bi < 0 || bi >= len(s.backends) {
				return nil, nil, true, fmt.Errorf("frontend: bad KILL target %q", fields[1])
			}
			if !s.backends[bi].Kill(id) {
				return nil, nil, true, fmt.Errorf("frontend: no query %d on czar %d", id, bi)
			}
			return []string{"killed"}, []sqlengine.Row{{id}}, true, nil
		}
		id, perr := strconv.ParseInt(fields[1], 10, 64)
		if perr != nil {
			return nil, nil, true, fmt.Errorf("frontend: bad KILL id %q", fields[1])
		}
		var owners []int
		for bi, b := range s.backends {
			for _, qi := range b.Running() {
				if qi.ID == id {
					owners = append(owners, bi)
					break
				}
			}
		}
		switch len(owners) {
		case 0:
			return nil, nil, true, fmt.Errorf("frontend: no such query %d", id)
		case 1:
			if !s.backends[owners[0]].Kill(id) {
				return nil, nil, true, fmt.Errorf("frontend: no such query %d", id)
			}
			return []string{"killed"}, []sqlengine.Row{{id}}, true, nil
		default:
			return nil, nil, true, fmt.Errorf(
				"frontend: query id %d is running on %d czars; use KILL <czar>:%d (czar column of SHOW PROCESSLIST)",
				id, len(owners), id)
		}
	}
	return nil, nil, false, nil
}

// clusterStatus returns the first backend's availability view.
func (s *Server) clusterStatus() (member.Status, bool) {
	for _, b := range s.backends {
		if st, ok := b.ClusterStatus(); ok {
			return st, true
		}
	}
	return member.Status{}, false
}
