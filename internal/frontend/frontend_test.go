package frontend

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/czar"
	"repro/internal/member"
	"repro/internal/qcache"
	"repro/internal/sqlengine"
)

// fakeBackend is a Backend whose query sessions are driven by a
// per-query handler through czar.QueryFeed — the seam that lets these
// tests control exactly when columns appear, rows stream, and errors
// strike, without a cluster underneath.
type fakeBackend struct {
	handler func(sql string, feed *czar.QueryFeed)

	mu      sync.Mutex
	nextID  int64
	running map[int64]*czar.Query
}

func newFakeBackend(handler func(sql string, feed *czar.QueryFeed)) *fakeBackend {
	return &fakeBackend{handler: handler, running: map[int64]*czar.Query{}}
}

func (f *fakeBackend) Submit(ctx context.Context, sql string, opts czar.Options) (*czar.Query, error) {
	f.mu.Lock()
	f.nextID++
	id := f.nextID
	f.mu.Unlock()
	q, feed := czar.NewQueryHandle(id, sql, core.Interactive)
	f.mu.Lock()
	f.running[id] = q
	f.mu.Unlock()
	// Bridge the submission context into the handle, as a real czar's
	// Submit does: canceling ctx kills the session.
	go func() {
		select {
		case <-ctx.Done():
			q.Cancel()
		case <-feed.Context().Done():
		}
	}()
	go func() {
		defer func() {
			f.mu.Lock()
			delete(f.running, id)
			f.mu.Unlock()
		}()
		f.handler(sql, feed)
	}()
	return q, nil
}

func (f *fakeBackend) Running() []czar.QueryInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]czar.QueryInfo, 0, len(f.running))
	for _, q := range f.running {
		out = append(out, czar.QueryInfo{ID: q.ID(), SQL: q.SQL(), Class: q.Class(), Started: q.Started()})
	}
	return out
}

func (f *fakeBackend) Kill(id int64) bool {
	f.mu.Lock()
	q := f.running[id]
	f.mu.Unlock()
	if q == nil {
		return false
	}
	q.Cancel()
	return true
}

func (f *fakeBackend) ClusterStatus() (member.Status, bool) { return member.Status{}, false }

func (f *fakeBackend) CacheStats() (qcache.Stats, bool) { return qcache.Stats{}, false }

func (f *fakeBackend) MetricsText() (string, bool) { return "", false }

func (f *fakeBackend) Profile(id int64) (string, bool) { return "", false }

func (f *fakeBackend) Profiles(n int) []string { return nil }

// echoHandler answers every query with a fixed two-column result.
func echoHandler(sql string, feed *czar.QueryFeed) {
	feed.SetColumns("id", "name")
	feed.Push(sqlengine.Row{int64(1), "a"}, sqlengine.Row{int64(2), "b"})
	feed.Finish(&sqlengine.Result{Cols: []string{"id", "name"}}, nil)
}

func serve(t *testing.T, cfg Config, b Backend) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", cfg, b)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server, user string) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), user, "lsst")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestV2RoundTrip(t *testing.T) {
	s := serve(t, Config{}, newFakeBackend(echoHandler))
	c := dial(t, s, "alice")
	for i := 0; i < 3; i++ { // connection is reusable across queries
		st, err := c.Query(context.Background(), "SELECT * FROM Object")
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if got := strings.Join(st.Cols(), ","); got != "id,name" {
			t.Fatalf("cols = %q", got)
		}
		var rows [][]sqlengine.Value
		for {
			row, ok := st.Next()
			if !ok {
				break
			}
			rows = append(rows, row)
		}
		if st.Err() != nil {
			t.Fatalf("stream error: %v", st.Err())
		}
		if len(rows) != 2 || st.RowCount() != 2 {
			t.Fatalf("rows = %v (count %d)", rows, st.RowCount())
		}
		if rows[0][0] != int64(1) || rows[1][1] != "b" {
			t.Fatalf("row values = %v", rows)
		}
	}
}

// TestV2StreamsBeforeCompletion is the protocol's reason to exist: the
// client must see the column header and the first row while the server
// side query is still running.
func TestV2StreamsBeforeCompletion(t *testing.T) {
	release := make(chan struct{})
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		feed.Push(sqlengine.Row{int64(42)})
		<-release // query is "still running" until the test releases it
		feed.Push(sqlengine.Row{int64(43)})
		feed.Finish(&sqlengine.Result{Cols: []string{"x"}}, nil)
	})
	s := serve(t, Config{}, b)
	c := dial(t, s, "alice")

	st, err := c.Query(context.Background(), "SELECT x FROM Object")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	row, ok := st.Next()
	if !ok || row[0] != int64(42) {
		t.Fatalf("first row = %v, %v", row, ok)
	}
	// First row observed while the producer is parked: streaming, not
	// buffering.
	close(release)
	if row, ok = st.Next(); !ok || row[0] != int64(43) {
		t.Fatalf("second row = %v, %v", row, ok)
	}
	if _, ok = st.Next(); ok || st.Err() != nil {
		t.Fatalf("expected clean end of stream, err=%v", st.Err())
	}
}

// TestV2MidStreamError: a failure after rows have already been streamed
// arrives as an in-band error frame, not a silent truncation.
func TestV2MidStreamError(t *testing.T) {
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		feed.Push(sqlengine.Row{int64(1)}, sqlengine.Row{int64(2)})
		feed.Finish(nil, fmt.Errorf("worker w3 died mid-scan"))
	})
	s := serve(t, Config{}, b)
	c := dial(t, s, "alice")

	st, err := c.Query(context.Background(), "SELECT x FROM Object")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var n int
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("rows before error = %d, want 2", n)
	}
	if st.Err() == nil || !strings.Contains(st.Err().Error(), "worker w3 died mid-scan") {
		t.Fatalf("stream error = %v, want the mid-scan failure", st.Err())
	}
	// The connection survives an in-band error.
	st2, err := c.Query(context.Background(), "SELECT x FROM Object")
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	for {
		if _, ok := st2.Next(); !ok {
			break
		}
	}
	if st2.Err() == nil || !strings.Contains(st2.Err().Error(), "worker w3 died mid-scan") {
		t.Fatalf("second stream error = %v", st2.Err())
	}
}

// TestV2ImmediateError covers a failure before any column is known
// (plan error, admission): the header slot carries the error frame.
func TestV2ImmediateError(t *testing.T) {
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.Finish(nil, fmt.Errorf("parse error near FROM"))
	})
	s := serve(t, Config{}, b)
	c := dial(t, s, "alice")
	if _, err := c.Query(context.Background(), "SELEC"); err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Fatalf("err = %v, want parse error", err)
	}
	if err := c.Ping(); err != nil { // connection still healthy
		t.Fatalf("Ping after error: %v", err)
	}
}

func TestV2KillFrame(t *testing.T) {
	started := make(chan struct{})
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		close(started)
		<-feed.Context().Done() // run until killed
		feed.Finish(nil, nil)   // cancellation cause wins in Finish
	})
	s := serve(t, Config{}, b)
	c := dial(t, s, "alice")

	st, err := c.Query(context.Background(), "SELECT x FROM Object")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	<-started
	if err := c.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if _, ok := st.Next(); ok {
		t.Fatalf("expected killed stream to end")
	}
	if st.Err() == nil || !strings.Contains(st.Err().Error(), "context canceled") {
		t.Fatalf("stream error = %v, want context canceled", st.Err())
	}
}

// TestV2ContextCancel proves the client-side ctx watcher kills the
// in-flight query server-side.
func TestV2ContextCancel(t *testing.T) {
	started := make(chan struct{})
	killed := make(chan struct{})
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		close(started)
		<-feed.Context().Done()
		close(killed)
		feed.Finish(nil, nil)
	})
	s := serve(t, Config{}, b)
	c := dial(t, s, "alice")

	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.Query(ctx, "SELECT x FROM Object")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	<-started
	cancel()
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatalf("backend query not killed after ctx cancel")
	}
	if _, ok := st.Next(); ok || st.Err() == nil {
		t.Fatalf("expected canceled stream to fail, err=%v", st.Err())
	}
}

// TestV2DisconnectKillsQuery: dropping the socket mid-query cancels the
// backend session through the per-connection context.
func TestV2DisconnectKillsQuery(t *testing.T) {
	started := make(chan struct{})
	killed := make(chan struct{})
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		close(started)
		<-feed.Context().Done()
		close(killed)
		feed.Finish(nil, nil)
	})
	s := serve(t, Config{}, b)
	c := dial(t, s, "alice")

	if _, err := c.Query(context.Background(), "SELECT x FROM Object"); err != nil {
		t.Fatalf("Query: %v", err)
	}
	<-started
	c.Close() // client vanishes mid-stream
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatalf("backend query not killed after client disconnect")
	}
}

func TestAdmissionPerUserQuota(t *testing.T) {
	block := make(chan struct{})
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		<-block
		feed.Finish(&sqlengine.Result{Cols: []string{"x"}}, nil)
	})
	defer close(block)
	s := serve(t, Config{MaxSessions: 10, PerUserSessions: 2, SessionQueueDepth: 10}, b)

	// Two sessions for alice occupy her quota.
	for i := 0; i < 2; i++ {
		c := dial(t, s, "alice")
		if _, err := c.Query(context.Background(), "SELECT x FROM Object"); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	// Her third sheds fast, even though global capacity remains.
	c3 := dial(t, s, "alice")
	start := time.Now()
	_, err := c3.Query(context.Background(), "SELECT x FROM Object")
	if !IsBusy(err) {
		t.Fatalf("third alice query: err = %v, want busy", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shed took %v, want fast rejection", d)
	}
	// Another user is unaffected.
	cb := dial(t, s, "bob")
	if _, err := cb.Query(context.Background(), "SELECT x FROM Object"); err != nil {
		t.Fatalf("bob query: %v", err)
	}
	st := s.Stats()
	if st.Shed != 1 || st.Active != 3 {
		t.Fatalf("stats = %+v, want 1 shed / 3 active", st)
	}
}

func TestAdmissionGlobalQuotaQueuesThenSheds(t *testing.T) {
	block := make(chan struct{})
	var startedN atomic.Int64
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		startedN.Add(1)
		feed.SetColumns("x")
		<-block
		feed.Finish(&sqlengine.Result{Cols: []string{"x"}}, nil)
	})
	s := serve(t, Config{MaxSessions: 1, SessionQueueDepth: 1}, b)

	// First session holds the only slot.
	c1 := dial(t, s, "u1")
	if _, err := c1.Query(context.Background(), "SELECT x FROM Object"); err != nil {
		t.Fatalf("first query: %v", err)
	}

	// Second queues (no header until the slot frees).
	c2 := dial(t, s, "u2")
	type qres struct {
		st  *Stream
		err error
	}
	res2 := make(chan qres, 1)
	go func() {
		st, err := c2.Query(context.Background(), "SELECT x FROM Object")
		res2 <- qres{st, err}
	}()

	// Wait until the waiter is actually enqueued, then overflow the
	// queue: the third session sheds immediately.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second session never queued: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	c3 := dial(t, s, "u3")
	start := time.Now()
	_, err := c3.Query(context.Background(), "SELECT x FROM Object")
	if !IsBusy(err) {
		t.Fatalf("third query: err = %v, want busy", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shed took %v, want fast rejection", d)
	}

	// Releasing the first session promotes the queued one.
	close(block)
	r2 := <-res2
	if r2.err != nil {
		t.Fatalf("queued query: %v", r2.err)
	}
	for {
		if _, ok := r2.st.Next(); !ok {
			break
		}
	}
	if r2.st.Err() != nil {
		t.Fatalf("queued query stream: %v", r2.st.Err())
	}
	if n := startedN.Load(); n != 2 {
		t.Fatalf("backend saw %d sessions, want 2 (third was shed)", n)
	}
	st := s.Stats()
	if st.Shed != 1 || st.EverQueued != 1 || st.Admitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdmissionQueuedWaiterAbandoned: a client that disconnects while
// queued must not hold its queue slot or user reservation.
func TestAdmissionQueuedWaiterAbandoned(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		<-block
		feed.Finish(&sqlengine.Result{Cols: []string{"x"}}, nil)
	})
	s := serve(t, Config{MaxSessions: 1, PerUserSessions: 1, SessionQueueDepth: 4}, b)

	c1 := dial(t, s, "u1")
	if _, err := c1.Query(context.Background(), "SELECT x FROM Object"); err != nil {
		t.Fatalf("first query: %v", err)
	}
	c2 := dial(t, s, "u2")
	go c2.Query(context.Background(), "SELECT x FROM Object")
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second session never queued: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	c2.Close()
	// u2's reservation drains, so a fresh u2 session can queue again.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Queued == 0 && st.Users == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned waiter still reserved: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestV2AdminCommands(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		select {
		case <-block:
		case <-feed.Context().Done():
		}
		feed.Finish(&sqlengine.Result{Cols: []string{"x"}}, nil)
	})
	s := serve(t, Config{MaxSessions: 8}, b)
	c := dial(t, s, "alice")
	if _, err := c.Query(context.Background(), "SELECT x FROM Object"); err != nil {
		t.Fatalf("query: %v", err)
	}

	admin := dial(t, s, "op")
	st, err := admin.Query(context.Background(), "SHOW FRONTEND")
	if err != nil {
		t.Fatalf("SHOW FRONTEND: %v", err)
	}
	row, ok := st.Next()
	if !ok || len(row) != 9 {
		t.Fatalf("SHOW FRONTEND row = %v", row)
	}
	if row[0] != int64(8) || row[3] != int64(1) { // MaxSessions, Active
		t.Fatalf("SHOW FRONTEND row = %v, want MaxSessions=8 Active=1", row)
	}
	st.Close()

	st, err = admin.Query(context.Background(), "SHOW PROCESSLIST")
	if err != nil {
		t.Fatalf("SHOW PROCESSLIST: %v", err)
	}
	var n int
	var id int64
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		id = row[0].(int64)
		n++
	}
	if n != 1 {
		t.Fatalf("PROCESSLIST rows = %d, want 1", n)
	}

	st, err = admin.Query(context.Background(), fmt.Sprintf("KILL %d", id))
	if err != nil {
		t.Fatalf("KILL: %v", err)
	}
	st.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(b.Running()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("killed query still running")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestV2BadHandshake(t *testing.T) {
	s := serve(t, Config{}, newFakeBackend(echoHandler))
	if _, err := Dial(s.Addr(), "alice\x00evil", "db"); err == nil {
		t.Fatalf("expected handshake with embedded NUL in db to fail")
	}
}

func TestStreamCloseMidFlight(t *testing.T) {
	b := newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		for i := 0; ; i++ {
			select {
			case <-feed.Context().Done():
				feed.Finish(nil, nil)
				return
			default:
			}
			feed.Push(sqlengine.Row{int64(i)})
			time.Sleep(time.Millisecond)
		}
	})
	s := serve(t, Config{}, b)
	c := dial(t, s, "alice")

	st, err := c.Query(context.Background(), "SELECT x FROM Object")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("expected at least one row")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The connection is reusable after an abandoned stream.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after Close: %v", err)
	}
}

// TestDoneFrameStatsRoundTrip pins the Done trailer's wire contract:
// the appended stats uvarints survive a round trip, a stats-free
// trailer from an old server decodes to zero stats, extra whole
// uvarints from a future server are skipped, and a truncated uvarint
// is rejected as hostile rather than read as a short value.
func TestDoneFrameStatsRoundTrip(t *testing.T) {
	want := DoneStats{ElapsedNS: 123456789, Chunks: 7, BytesMerged: 1 << 20}
	body := encodeDone(42, want)
	if body[0] != tagDone {
		t.Fatalf("tag = %#x", body[0])
	}
	rows, st, err := decodeDone(body[1:])
	if err != nil || rows != 42 || st != want {
		t.Fatalf("decodeDone = (%d, %+v, %v), want (42, %+v, nil)", rows, st, err, want)
	}

	// Old server: row count only.
	rows, st, err = decodeDone([]byte{42})
	if err != nil || rows != 42 || st != (DoneStats{}) {
		t.Fatalf("legacy decodeDone = (%d, %+v, %v)", rows, st, err)
	}

	// Future server: one extra whole uvarint after the known stats.
	future := append(append([]byte{}, body[1:]...), 0x05)
	rows, st, err = decodeDone(future)
	if err != nil || rows != 42 || st != want {
		t.Fatalf("forward-compat decodeDone = (%d, %+v, %v)", rows, st, err)
	}

	// Hostile: a truncated multi-byte uvarint must error, not silently
	// under-read.
	if _, _, err := decodeDone([]byte{42, 0x80}); err == nil {
		t.Fatalf("truncated trailer decoded without error")
	}
	if _, _, err := decodeDone(nil); err == nil {
		t.Fatalf("empty trailer decoded without error")
	}
}

// TestV2DoneStatsOnStream checks the stats ride the wire end to end:
// a finished query's Stream.Stats reports the czar-side elapsed time,
// and an admin command (which never touches a worker) reports zeros.
func TestV2DoneStatsOnStream(t *testing.T) {
	s := serve(t, Config{MaxSessions: 4}, newFakeBackend(echoHandler))
	c := dial(t, s, "alice")

	st, err := c.Query(context.Background(), "SELECT * FROM Object")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if st.Err() != nil {
		t.Fatalf("stream error: %v", st.Err())
	}
	if got := st.Stats(); got.ElapsedNS <= 0 {
		t.Fatalf("Stats().ElapsedNS = %d, want > 0", got.ElapsedNS)
	}

	st, err = c.Query(context.Background(), "SHOW FRONTEND")
	if err != nil {
		t.Fatalf("SHOW FRONTEND: %v", err)
	}
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if got := st.Stats(); got != (DoneStats{}) {
		t.Fatalf("admin Stats() = %+v, want zeros", got)
	}
}

// telemetryBackend is a fakeBackend with a metrics registry and
// retained traces wired, for the SHOW METRICS / SHOW PROFILE paths.
type telemetryBackend struct {
	*fakeBackend
	metrics  string
	profiles map[int64]string
}

func (b *telemetryBackend) MetricsText() (string, bool) { return b.metrics, b.metrics != "" }

func (b *telemetryBackend) Profile(id int64) (string, bool) {
	text, ok := b.profiles[id]
	return text, ok
}

func (b *telemetryBackend) Profiles(n int) []string {
	var out []string
	for id := range b.profiles {
		out = append(out, fmt.Sprintf("#%d trace", id))
		if len(out) == n {
			break
		}
	}
	return out
}

func TestShowMetricsAndProfile(t *testing.T) {
	b := &telemetryBackend{
		fakeBackend: newFakeBackend(echoHandler),
		metrics:     "# TYPE qserv_czar_queries_total counter\nqserv_czar_queries_total 5\n",
		profiles:    map[int64]string{7: "q7 SELECT ...\n  czar merge  1ms"},
	}
	s := serve(t, Config{}, b)
	c := dial(t, s, "op")

	collect := func(sql string) ([]string, error) {
		st, err := c.Query(context.Background(), sql)
		if err != nil {
			return nil, err
		}
		var lines []string
		for {
			row, ok := st.Next()
			if !ok {
				break
			}
			lines = append(lines, row[0].(string))
		}
		return lines, st.Err()
	}

	lines, err := collect("SHOW METRICS")
	if err != nil {
		t.Fatalf("SHOW METRICS: %v", err)
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "# TYPE qserv_czar_queries_total") {
		t.Fatalf("SHOW METRICS rows = %q", lines)
	}

	lines, err = collect("SHOW PROFILE")
	if err != nil {
		t.Fatalf("SHOW PROFILE: %v", err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "#7") {
		t.Fatalf("SHOW PROFILE rows = %q", lines)
	}

	lines, err = collect("SHOW PROFILE 7")
	if err != nil {
		t.Fatalf("SHOW PROFILE 7: %v", err)
	}
	if len(lines) != 2 || !strings.Contains(lines[1], "czar merge") {
		t.Fatalf("SHOW PROFILE 7 rows = %q", lines)
	}

	if _, err := collect("SHOW PROFILE 99"); err == nil {
		t.Fatalf("SHOW PROFILE 99: expected no-retained-trace error")
	}
	if _, err := collect("SHOW PROFILE abc"); err == nil {
		t.Fatalf("SHOW PROFILE abc: expected bad-id error")
	}

	// A backend without telemetry wired refuses with a pointed error.
	s2 := serve(t, Config{}, newFakeBackend(echoHandler))
	c2 := dial(t, s2, "op")
	st, err := c2.Query(context.Background(), "SHOW METRICS")
	if err == nil {
		st.Close()
		t.Fatalf("SHOW METRICS without telemetry: expected error")
	}
}

// ---------- multi-backend and admin behaviour ----------

// engineBackend is a fakeBackend answering real SQL from a local
// engine, with a canned process list and availability snapshot, for
// the behaviours that span several czars behind one frontend.
type engineBackend struct {
	*fakeBackend
	calls  atomic.Int64
	killed atomic.Int64

	listed []czar.QueryInfo
	status *member.Status
}

func newEngineBackend(t *testing.T) *engineBackend {
	t.Helper()
	e := sqlengine.New("LSST")
	if _, err := e.Execute(`CREATE TABLE Object (objectId BIGINT, ra_PS DOUBLE, note VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(`INSERT INTO Object VALUES (1, 10.5, 'a'), (2, 20.25, NULL), (3, 30.0, 'c')`); err != nil {
		t.Fatal(err)
	}
	b := &engineBackend{}
	b.fakeBackend = newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		b.calls.Add(1)
		feed.Finish(e.Query(sql))
	})
	return b
}

func (b *engineBackend) Running() []czar.QueryInfo { return b.listed }

func (b *engineBackend) Kill(id int64) bool {
	for _, qi := range b.listed {
		if qi.ID == id {
			b.killed.Add(1)
			return true
		}
	}
	return false
}

func (b *engineBackend) ClusterStatus() (member.Status, bool) {
	if b.status == nil {
		return member.Status{}, false
	}
	return *b.status, true
}

// queryAll runs one statement to completion.
func queryAll(c *Client, sql string) (cols []string, rows [][]sqlengine.Value, err error) {
	st, err := c.Query(context.Background(), sql)
	if err != nil {
		return nil, nil, err
	}
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	return st.Cols(), rows, st.Err()
}

func serveBackends(t *testing.T, backends ...Backend) *Client {
	t.Helper()
	s, err := Serve("127.0.0.1:0", Config{}, backends...)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return dial(t, s, "alice")
}

func TestServeRequiresBackend(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", Config{}); err == nil {
		t.Error("no backends should fail")
	}
}

// TestEveryValueKindOverTheWire: ints, floats, strings and NULLs from
// a real engine result survive the row frame, and a failed statement
// leaves the connection usable.
func TestEveryValueKindOverTheWire(t *testing.T) {
	c := serveBackends(t, newEngineBackend(t))
	cols, rows, err := queryAll(c, "SELECT objectId, ra_PS, note FROM Object ORDER BY objectId")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 || cols[0] != "objectId" || len(rows) != 3 {
		t.Fatalf("cols %v, %d rows", cols, len(rows))
	}
	if rows[0][0] != int64(1) || rows[0][1] != 10.5 || rows[0][2] != "a" {
		t.Errorf("row 0: %v", rows[0])
	}
	if rows[1][2] != nil {
		t.Errorf("NULL not preserved: %v", rows[1][2])
	}
	if _, _, err := queryAll(c, "SELECT * FROM NoSuch"); err == nil || !strings.Contains(err.Error(), "NoSuch") {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, rows, err := queryAll(c, "SELECT COUNT(*) FROM Object"); err != nil || rows[0][0] != int64(3) {
		t.Fatalf("connection dead after error: %v %v", rows, err)
	}
}

// TestNonHandshakeFirstFrame: a client whose first frame is not a v2
// hello — SQL text, as the removed v1 protocol sent — gets exactly one
// E frame and a closed connection.
func TestNonHandshakeFirstFrame(t *testing.T) {
	b := newEngineBackend(t)
	s := serve(t, Config{}, b)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, []byte("SELECT COUNT(*) FROM Object")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	f, err := readFrame(r)
	if err != nil {
		t.Fatalf("reading the rejection: %v", err)
	}
	if len(f) == 0 || f[0] != tagErr || !strings.Contains(string(f[1:]), "handshake") {
		t.Fatalf("rejection frame = %q, want an E frame naming the handshake", f)
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("after the E frame: %v, want EOF", err)
	}
	if b.calls.Load() != 0 {
		t.Fatalf("backend ran %d statements for a client that never shook hands", b.calls.Load())
	}
}

func TestLoadBalancingAcrossCzars(t *testing.T) {
	// Section 7.6: "launch multiple master instances ... some logic in
	// the MySQL proxy to load-balance between different Qserv masters."
	b1, b2 := newEngineBackend(t), newEngineBackend(t)
	c := serveBackends(t, b1, b2)
	for i := 0; i < 10; i++ {
		if _, _, err := queryAll(c, "SELECT COUNT(*) FROM Object"); err != nil {
			t.Fatal(err)
		}
	}
	if b1.calls.Load() == 0 || b2.calls.Load() == 0 {
		t.Errorf("load not balanced: %d vs %d", b1.calls.Load(), b2.calls.Load())
	}
	if b1.calls.Load()+b2.calls.Load() != 10 {
		t.Errorf("total calls = %d", b1.calls.Load()+b2.calls.Load())
	}
}

func TestConcurrentClients(t *testing.T) {
	s := serve(t, Config{}, newEngineBackend(t))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr(), "alice", "LSST")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				_, rows, err := queryAll(c, "SELECT SUM(objectId) FROM Object")
				if err != nil {
					errs <- err
					return
				}
				if rows[0][0] != int64(6) {
					errs <- fmt.Errorf("sum = %v", rows[0][0])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShowProcesslistAndKillAcrossCzars: PROCESSLIST unions every
// backend, KILL finds the owning backend, unknown ids error.
func TestShowProcesslistAndKillAcrossCzars(t *testing.T) {
	b1, b2 := newEngineBackend(t), newEngineBackend(t)
	b1.listed = []czar.QueryInfo{{ID: 3, SQL: "SELECT 1 FROM Object", Started: time.Now()}}
	b2.listed = []czar.QueryInfo{{ID: 8, SQL: "SELECT 2 FROM Object", Started: time.Now()}}
	c := serveBackends(t, b1, b2)

	cols, rows, err := queryAll(c, "SHOW PROCESSLIST")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("processlist rows = %d, want 2", len(rows))
	}
	if cols[0] != "Id" || rows[0][0] != int64(3) || rows[1][0] != int64(8) {
		t.Errorf("processlist content: %v %v", cols, rows)
	}
	// The czar column distinguishes the backends.
	if rows[0][1] == rows[1][1] {
		t.Errorf("both queries attributed to one czar: %v", rows)
	}
	// Case-insensitive, trailing semicolon tolerated.
	if _, rows, err = queryAll(c, "show processlist;"); err != nil || len(rows) != 2 {
		t.Fatalf("lowercase processlist: %v %v", rows, err)
	}

	if _, rows, err = queryAll(c, "KILL 8"); err != nil {
		t.Fatal(err)
	} else if rows[0][0] != int64(8) {
		t.Errorf("kill result: %v", rows)
	}
	if b2.killed.Load() != 1 || b1.killed.Load() != 0 {
		t.Errorf("kill routed wrong: b1=%d b2=%d", b1.killed.Load(), b2.killed.Load())
	}
	if _, _, err := queryAll(c, "KILL 99"); err == nil {
		t.Error("killing an unknown id should error")
	}
	if _, _, err := queryAll(c, "KILL abc"); err == nil {
		t.Error("non-numeric KILL id should error")
	}
	// Plain SQL still flows after admin commands on the same conn.
	if _, rows, err := queryAll(c, "SELECT COUNT(*) FROM Object"); err != nil || rows[0][0] != int64(3) {
		t.Fatalf("SQL after admin: %v %v", rows, err)
	}
}

// TestKillAmbiguousAcrossCzars: colliding czar-local ids force the
// qualified KILL <czar>:<id> form.
func TestKillAmbiguousAcrossCzars(t *testing.T) {
	b1, b2 := newEngineBackend(t), newEngineBackend(t)
	b1.listed = []czar.QueryInfo{{ID: 4, SQL: "SELECT a", Started: time.Now()}}
	b2.listed = []czar.QueryInfo{{ID: 4, SQL: "SELECT b", Started: time.Now()}}
	c := serveBackends(t, b1, b2)

	if _, _, err := queryAll(c, "KILL 4"); err == nil || !strings.Contains(err.Error(), "KILL <czar>:4") {
		t.Fatalf("ambiguous bare KILL should instruct qualification, got %v", err)
	}
	if b1.killed.Load()+b2.killed.Load() != 0 {
		t.Fatal("ambiguous KILL killed something")
	}
	_, rows, err := queryAll(c, "KILL 1:4")
	if err != nil || rows[0][0] != int64(4) {
		t.Fatalf("qualified KILL: %v %v", rows, err)
	}
	if b1.killed.Load() != 0 || b2.killed.Load() != 1 {
		t.Errorf("qualified KILL routed wrong: b1=%d b2=%d", b1.killed.Load(), b2.killed.Load())
	}
	if _, _, err := queryAll(c, "KILL 9:4"); err == nil {
		t.Error("out-of-range czar index should error")
	}
	if _, _, err := queryAll(c, "KILL 0:99"); err == nil {
		t.Error("unknown id on named czar should error")
	}
}

// TestShowWorkers: the availability snapshot renders one row per
// worker, served from the first backend that has a membership wired.
func TestShowWorkers(t *testing.T) {
	noStatus := newEngineBackend(t)
	withStatus := newEngineBackend(t)
	withStatus.status = &member.Status{
		Epoch: 7,
		Workers: []member.WorkerStatus{
			{Name: "worker-000", State: member.StateAlive, Chunks: 12, LastSeen: time.Now()},
			{Name: "worker-001", State: member.StateDead, Chunks: 0, Misses: 5, LastErr: "offline"},
		},
		Repair: member.RepairProgress{ChunksRepaired: 3, TablesCopied: 6, BytesCopied: 4096},
	}
	c := serveBackends(t, noStatus, withStatus)

	_, rows, err := queryAll(c, "SHOW WORKERS")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("SHOW WORKERS rows = %d, want 2", len(rows))
	}
	if rows[0][0] != "worker-000" || rows[0][1] != "alive" || rows[0][2] != int64(12) {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[1][1] != "dead" || rows[1][3] != int64(5) || rows[1][5] != "offline" {
		t.Errorf("row 1 = %v", rows[1])
	}

	_, rep, err := queryAll(c, "SHOW REPAIRS")
	if err != nil {
		t.Fatal(err)
	}
	if rep[0][0] != int64(7) || rep[0][1] != int64(3) || rep[0][2] != int64(0) || rep[0][5] != int64(4096) {
		t.Errorf("SHOW REPAIRS = %v", rep[0])
	}
}

// TestShowWorkersWithoutMembership: a frontend over membership-less
// backends reports a clear error rather than an empty table.
func TestShowWorkersWithoutMembership(t *testing.T) {
	c := serveBackends(t, newEngineBackend(t))
	if _, _, err := queryAll(c, "SHOW WORKERS"); err == nil || !strings.Contains(err.Error(), "availability") {
		t.Fatalf("SHOW WORKERS without membership: %v", err)
	}
}

// cannedBackend answers "n" with the first n of its rows, synchronously:
// what a session costs is then the frontend's, and repeats exactly.
type cannedBackend struct {
	fakeBackend
	rows []sqlengine.Row
}

func (b *cannedBackend) Submit(_ context.Context, sql string, _ czar.Options) (*czar.Query, error) {
	var n int
	if _, err := fmt.Sscan(sql, &n); err != nil {
		return nil, err
	}
	q, feed := czar.NewQueryHandle(1, sql, core.Interactive)
	feed.SetColumns("id", "x", "name")
	feed.Push(b.rows[:n]...)
	feed.Finish(&sqlengine.Result{Cols: []string{"id", "x", "name"}}, nil)
	return q, nil
}

// TestRowLoopAllocBudget: a session's row loop forwards each row as the
// bytes the stream holds — length prefix, tag, row — and allocates nothing
// for it: twice the rows, the same allocations.
func TestRowLoopAllocBudget(t *testing.T) {
	b := &cannedBackend{rows: make([]sqlengine.Row, 4000)}
	for i := range b.rows {
		b.rows[i] = sqlengine.Row{int64(i), float64(i) / 3, fmt.Sprint("row ", i)}
	}
	s := &Server{backends: []Backend{b}, adm: newAdmission(0, 0, 0)}
	var kill atomic.Pointer[context.CancelCauseFunc]
	var out countingWriter
	w := bufio.NewWriter(&out)
	session := func(rows int) float64 {
		sql := fmt.Sprint(rows)
		return testing.AllocsPerRun(10, func() {
			if !s.runV2Query(context.Background(), w, "u", sql, &kill) {
				t.Fatal("session failed")
			}
		})
	}
	few, many := session(2000), session(4000)
	if few != many {
		t.Errorf("%.0f allocations to stream 2000 rows, %.0f for 4000: the row loop allocates per row", few, many)
	}
	if out.bytes < 4000 {
		t.Fatalf("%d bytes written: the rows did not stream", out.bytes)
	}
}

// countingWriter discards, and counts the bytes.
type countingWriter struct{ bytes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.bytes += len(p); return len(p), nil }
