package frontend

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/czar"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// fakeBackend is a Backend whose query sessions are driven by a
// per-query handler through czar.QueryFeed — the seam that lets these
// tests control exactly when columns appear, rows stream, and errors
// strike, without a cluster underneath.
type fakeBackend struct {
	handler func(sql string, feed *czar.QueryFeed)
	nextID  atomic.Int64
}

func newFakeBackend(handler func(sql string, feed *czar.QueryFeed)) *fakeBackend {
	return &fakeBackend{handler: handler}
}

func (f *fakeBackend) Submit(ctx context.Context, sql string, opts czar.Options) (*czar.Query, error) {
	q, feed := czar.NewQueryHandle(f.nextID.Add(1), sql, core.Interactive)
	// Bridge the submission context into the handle, as a real czar's
	// Submit does: canceling ctx kills the session.
	go func() {
		select {
		case <-ctx.Done():
			q.Cancel()
		case <-feed.Context().Done():
		}
	}()
	go f.handler(sql, feed)
	return q, nil
}

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

// engineBackend is a fakeBackend answering real SQL from a local
// engine.
type engineBackend struct {
	*fakeBackend
	calls atomic.Int64
}

func newEngineBackend(t *testing.T) *engineBackend {
	t.Helper()
	e := sqlengine.New("LSST")
	tbl := sqlengine.NewTable("Object", sqlengine.Schema{
		{Name: "objectId", Type: sqlparse.TypeInt}, {Name: "ra_PS", Type: sqlparse.TypeFloat}, {Name: "note", Type: sqlparse.TypeString}})
	if err := tbl.Insert(sqlengine.Row{int64(1), 10.5, "a"}, sqlengine.Row{int64(2), 20.25, nil}, sqlengine.Row{int64(3), 30.0, "c"}); err != nil {
		t.Fatal(err)
	}
	db, _ := e.Database("LSST")
	db.Put(tbl)
	b := &engineBackend{}
	b.fakeBackend = newFakeBackend(func(sql string, feed *czar.QueryFeed) {
		b.calls.Add(1)
		feed.Finish(e.Query(sql))
	})
	return b
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

func TestServeRequiresBackend(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", Config{}, nil); err == nil {
		t.Error("a nil backend should be refused")
	}
}

// TestEveryValueKindOverTheWire: ints, floats, strings and NULLs from
// a real engine result survive the row frame, and a failed statement
// leaves the connection usable.
func TestEveryValueKindOverTheWire(t *testing.T) {
	c := dial(t, serve(t, Config{}, newEngineBackend(t)), "alice")
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

// TestNonHandshakeFirstFrame: a client whose first frame is not a
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

// cannedBackend answers "n" with the first n of its rows, synchronously:
// what a session costs is then the frontend's, and repeats exactly. The
// rows enter the stream batch rows at a time; all at once when batch is 0.
type cannedBackend struct {
	rows  []sqlengine.Row
	batch int
}

func (b *cannedBackend) Submit(_ context.Context, sql string, _ czar.Options) (*czar.Query, error) {
	n, err := strconv.Atoi(sql) // not fmt: its pools allocate when the goroutine changes P
	if err != nil {
		return nil, err
	}
	q, feed := czar.NewQueryHandle(1, sql, core.Interactive)
	feed.SetColumns("id", "x", "name")
	for rows := b.rows[:n]; len(rows) > 0; {
		k := len(rows)
		if b.batch > 0 {
			k = min(k, b.batch)
		}
		feed.Push(rows[:k]...)
		rows = rows[k:]
	}
	feed.Finish(&sqlengine.Result{Cols: []string{"id", "x", "name"}}, nil)
	return q, nil
}

// TestRowLoopAllocBudget: a session's row loop forwards each batch of the
// row stream as one row frame — length prefix, tag and row count, then the
// bytes the stream holds — and allocates nothing for it: twice the rows,
// the same allocations; four batches, four row frames.
func TestRowLoopAllocBudget(t *testing.T) {
	rows := make([]sqlengine.Row, 4000)
	for i := range rows {
		rows[i] = sqlengine.Row{int64(i), float64(i) / 3, fmt.Sprint("row ", i)}
	}
	var kill atomic.Pointer[context.CancelCauseFunc]
	run := func(b Backend, w *bufio.Writer, sql string) {
		s := &Server{b: b, adm: newAdmission(0, 0, 0)}
		if !s.runQuery(context.Background(), w, "u", sql, &kill) {
			t.Fatal("session failed")
		}
	}
	var out countingWriter
	w := bufio.NewWriter(&out)
	canned := &cannedBackend{rows: rows}
	session := func(n int) float64 {
		sql := strconv.Itoa(n)
		return testing.AllocsPerRun(10, func() { run(canned, w, sql) })
	}
	few, many := session(2000), session(4000)
	if few != many {
		t.Errorf("%.0f allocations to stream 2000 rows, %.0f for 4000: the row loop allocates per row", few, many)
	}
	if out.bytes < 4000 {
		t.Fatalf("%d bytes written: the rows did not stream", out.bytes)
	}

	var wire bytes.Buffer
	w = bufio.NewWriter(&wire)
	run(&cannedBackend{rows: rows, batch: 500}, w, "2000")
	var tags []byte
	for r := bufio.NewReader(&wire); ; {
		f, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil || len(f) == 0 {
			t.Fatalf("reading the session back: %q, %v", f, err)
		}
		tags = append(tags, f[0])
	}
	if string(tags) != "CRRRRD" {
		t.Errorf("a session of four 500-row batches wrote frames %q, want CRRRRD", tags)
	}
}

// countingWriter discards, and counts the bytes.
type countingWriter struct{ bytes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.bytes += len(p); return len(p), nil }

// replay is a Stream over what a server wrote after the column header —
// row frames, then D or E — with no socket underneath.
func replay(wire []byte, cols []string) *Stream {
	c := &Client{conn: closedConn{}, r: bufio.NewReader(bytes.NewReader(wire))}
	c.mu.Lock()
	return &Stream{c: c, cols: cols}
}

// closedConn is the connection of a replayed stream: closing it, as a
// failed stream does, does nothing.
type closedConn struct{ net.Conn }

func (closedConn) Close() error { return nil }

// recordSession renders what a server writes after the column header for
// a stream of batches: each batch's row frames at the frame limit given,
// then D.
func recordSession(t testing.TB, limit int, batches ...[]sqlengine.Row) []byte {
	t.Helper()
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	rows := 0
	for _, batch := range batches {
		b, err := rowcodec.EncodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeBatch(w, b, limit); err != nil {
			t.Fatal(err)
		}
		rows += b.Len()
	}
	if err := writeFrame(w, encodeDone(int64(rows), DoneStats{})); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return wire.Bytes()
}

// TestClientDecodeAllocBudget: the client decodes a row frame into one
// slab of cells and one slab of their numbers, and hands rows out of them
// — no row slice, no frame buffer and no box per row or per numeric cell —
// so a frame of twice the rows costs at most a few allocations more, and
// two more per string cell: its own string, and the box of its header.
func TestClientDecodeAllocBudget(t *testing.T) {
	cols := []string{"objectId", "ra_PS", "decl_PS", "name"}
	drain := func(n int) float64 {
		rows := make([]sqlengine.Row, n)
		for i := range rows { // a cell of each kind that boxing would allocate for: no integer below 256, no zero, no ""
			rows[i] = sqlengine.Row{int64(1000 + i), 10 + float64(i)/float64(n), -1 - float64(i)/float64(n), fmt.Sprintf("object %d", i)}
		}
		wire := recordSession(t, maxFrame, rows)
		return testing.AllocsPerRun(10, func() {
			st := replay(wire, cols)
			got := 0
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				got++
			}
			if st.Err() != nil || got != n || st.RowCount() != int64(n) {
				t.Fatalf("decoded %d rows of %d (trailer %d): %v", got, n, st.RowCount(), st.Err())
			}
		})
	}
	const slack, strCols = 2, 1
	if few, many := drain(2000), drain(4000); many-few > 2*2000*strCols+slack {
		t.Errorf("%.0f allocations to decode 2000 rows of %d cells in one frame, %.0f for 4000: %.0f more, over two per string cell and the %d a frame may vary by",
			few, len(cols), many, many-few, slack)
	}
}

// TestDecodedRowsOutliveTheirFrame: a row the client hands out points into
// its frame's slabs, so it must keep its cells, types and bits, however
// many frames are decoded after it and whatever the heap does meanwhile,
// through collections. Every cell of every frame is a value of its own, so
// two frames that shared a slab cell would show as a kept cell that
// changed, and a slab collected under its rows as garbage in them.
func TestDecodedRowsOutliveTheirFrame(t *testing.T) {
	cols := []string{"id", "flux", "name", "note"}
	const frames = 6
	var batches [][]sqlengine.Row
	var want []sqlengine.Row
	for f := 0; f < frames; f++ {
		batch := make([]sqlengine.Row, 200+50*f)
		for i := range batch {
			k := f*1000 + i
			var flux sqlengine.Value
			switch k % 4 {
			case 0:
				flux = math.Copysign(0, -1)
			case 1:
				flux = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(k))
			case 2:
				flux = 1e-30 * float64(k)
			}
			batch[i] = sqlengine.Row{int64(math.MaxInt64 - k), flux, fmt.Sprintf("frame %d row %d", f, i), ""}
		}
		batches = append(batches, batch)
		want = append(want, batch...)
	}
	// churn allocates and drops objects of the sizes a frame's slabs and
	// cells have, filled with other bits, then collects.
	churn := func() {
		var junk []any
		for i := 0; i < 2000; i++ {
			words := make([]uint64, 200+i%300*4)
			for j := range words {
				words[j] = 0xdead_beef_dead_beef
			}
			junk = append(junk, words, float64(i)+0.5, fmt.Sprint("junk", i), make([]sqlengine.Value, 200+i%300*4))
		}
		runtime.KeepAlive(junk)
		runtime.GC()
	}

	st := replay(recordSession(t, maxFrame, batches...), cols)
	var kept []sqlengine.Row
	for row, ok := st.Next(); ok; row, ok = st.Next() {
		kept = append(kept, row)
		if len(kept)%200 == 0 {
			churn()
		}
	}
	if st.Err() != nil || len(kept) != len(want) {
		t.Fatalf("decoded %d rows of %d: %v", len(kept), len(want), st.Err())
	}
	churn()
	for i, row := range kept {
		for j := range row {
			if !sameCell(row[j], want[i][j]) {
				t.Fatalf("row %d cell %d reads %T %#v after later frames and collections, was sent as %T %#v",
					i, j, row[j], row[j], want[i][j], want[i][j])
			}
		}
	}
}

// TestBatchFrameSplitsAtLimit: a batch whose frame would exceed the limit
// leaves in several frames, cut at row boundaries, each within the limit;
// the client reads every row once, in order, and as many as the trailer
// counts. A row that does not fit in a frame of its own is an error.
func TestBatchFrameSplitsAtLimit(t *testing.T) {
	rows := make([]sqlengine.Row, 100)
	for i := range rows {
		rows[i] = sqlengine.Row{int64(i), strings.Repeat("x", i%17), nil}
	}
	const limit = 200
	wire := recordSession(t, limit, rows)
	frames := 0
	for r := bufio.NewReader(bytes.NewReader(wire)); ; frames++ {
		f, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(f) > limit {
			t.Errorf("frame %d is %d bytes, over the %d-byte limit", frames, len(f), limit)
		}
		if f[0] == tagDone {
			break
		}
	}
	if frames < 10 {
		t.Errorf("100 rows of about 20 bytes left in %d frames of at most %d bytes", frames, limit)
	}
	st := replay(wire, []string{"id", "s", "n"})
	var got []sqlengine.Row
	for row, ok := st.Next(); ok; row, ok = st.Next() {
		got = append(got, row)
	}
	if st.Err() != nil || st.RowCount() != int64(len(got)) || len(got) != len(rows) {
		t.Fatalf("read %d rows of %d, trailer counts %d: %v", len(got), len(rows), st.RowCount(), st.Err())
	}
	for i, row := range got {
		if row[0] != rows[i][0] || row[1] != rows[i][1] || row[2] != nil {
			t.Fatalf("row %d = %v, want %v", i, row, rows[i])
		}
	}

	b, _ := rowcodec.EncodeBatch(rows[16:17]) // 16 x's: 22 bytes with the cells' tags
	if err := writeBatch(bufio.NewWriter(io.Discard), b, 20); err == nil || !strings.Contains(err.Error(), "exceeds the frame limit") {
		t.Errorf("a row over the frame limit: %v", err)
	}
}

// TestOldHandshakeRefused: a client of an older protocol version gets one
// E frame naming the version this server speaks, then a close.
func TestOldHandshakeRefused(t *testing.T) {
	b := newEngineBackend(t)
	s := serve(t, Config{}, b)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, []byte("\x02QSV2\x00alice\x00LSST")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	f, err := readFrame(r)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if want := fmt.Sprintf("version %d", hsVersion); len(f) == 0 || f[0] != tagErr || !strings.Contains(string(f[1:]), want) {
		t.Fatalf("refusal frame = %q, want an E frame naming %s", f, want)
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("after the E frame: %v, want EOF", err)
	}
	if b.calls.Load() != 0 {
		t.Fatalf("backend ran %d statements for a refused client", b.calls.Load())
	}
}

// BenchmarkStreamDecode prices the client's side of an HV2 answer: 94 row
// frames, one per chunk result, of 250 rows of nine numeric columns each,
// read, decoded and handed out row by row by a Stream — in ns and
// allocations per row. `make bench-layers` runs it.
func BenchmarkStreamDecode(b *testing.B) {
	const chunks, perChunk = 94, 250
	cols := []string{"objectId", "ra_PS", "decl_PS", "uFlux_PS", "gFlux_PS", "rFlux_PS", "iFlux_PS", "zFlux_PS", "yFlux_PS"}
	batches := make([][]sqlengine.Row, chunks)
	for i := range batches {
		batches[i] = make([]sqlengine.Row, perChunk)
		for j := range batches[i] {
			f := 1e-28 * float64(1+j%97)
			batches[i][j] = sqlengine.Row{int64(1000 + i*perChunk + j), 10 + float64(j%49)/25, float64(j%51)/25 - 1,
				f, 2 * f, 3 * f, 4 * f, 5 * f, 6 * f}
		}
	}
	wire := recordSession(b, maxFrame, batches...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		st := replay(wire, cols)
		for _, ok := st.Next(); ok; _, ok = st.Next() {
			rows++
		}
		if st.Err() != nil || st.RowCount() != chunks*perChunk {
			b.Fatalf("trailer %d: %v", st.RowCount(), st.Err())
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rows), "allocs/row")
}
