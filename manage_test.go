package qserv

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/frontend"
)

// wireQuery runs one statement over a frontend connection to the end.
func wireQuery(c *frontend.Client, sql string) (cols []string, rows [][]any, err error) {
	st, err := c.Query(context.Background(), sql)
	if err != nil {
		return nil, nil, err
	}
	for row, ok := st.Next(); ok; row, ok = st.Next() {
		rows = append(rows, row)
	}
	return st.Cols(), rows, st.Err()
}

// TestManagementStatementsInProcess: the czar answers SHOW and KILL to the
// in-process API exactly as it does over the wire. While a slowed scan
// runs, SHOW PROCESSLIST lists it, every SHOW answers with the columns a
// served frontend returns, and KILL ends the scan with context.Canceled.
func TestManagementStatementsInProcess(t *testing.T) {
	cl := scanCluster(t)
	slowScans(cl, 200*time.Microsecond)
	first, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	f := startFrontend(t, cl, FrontendConfig{})
	c, err := frontend.Dial(f.Addr(), "op", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const scan = "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 1e-31"
	q, err := cl.Submit(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cl.Query("SHOW PROCESSLIST")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Rows) != 1 || pl.Rows[0][0] != q.ID() || pl.Rows[0][len(pl.Cols)-1] != scan {
		t.Fatalf("SHOW PROCESSLIST = %v %v, want the scan %d", pl.Cols, pl.Rows, q.ID())
	}

	for _, sql := range []string{"SHOW PROCESSLIST", "SHOW WORKERS", "SHOW REPAIRS", "SHOW CACHE",
		"SHOW METRICS", "SHOW PROFILE", fmt.Sprintf("SHOW PROFILE %d", first.ID)} {
		res, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("%s in process: %v", sql, err)
		}
		cols, rows, err := wireQuery(c, sql)
		if err != nil {
			t.Fatalf("%s over the wire: %v", sql, err)
		}
		if !slices.Equal(res.Cols, cols) || len(res.Rows) == 0 || len(rows) == 0 {
			t.Errorf("%s: in process %v (%d rows), over the wire %v (%d rows)", sql, res.Cols, len(res.Rows), cols, len(rows))
		}
	}
	if res, err := cl.Query("SHOW WORKERS"); err != nil || len(res.Rows) != 2 {
		t.Errorf("SHOW WORKERS of two workers = %v, %v", res, err)
	}

	killed, err := cl.Query(fmt.Sprintf("KILL %d", q.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(killed.Rows) != 1 || killed.Rows[0][0] != q.ID() {
		t.Fatalf("KILL answered %v", killed.Rows)
	}
	if _, err := q.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed scan's Wait = %v, want context.Canceled", err)
	}
}

// TestManagementBypassesAdmission: with the frontend's one session slot
// held and no queue, a second SELECT sheds busy while SHOW PROCESSLIST and
// KILL still answer, so an operator can see and relieve a saturated
// frontend.
func TestManagementBypassesAdmission(t *testing.T) {
	cl := scanCluster(t)
	slowScans(cl, 200*time.Microsecond)
	f := startFrontend(t, cl, FrontendConfig{MaxSessions: 1, SessionQueueDepth: 0})
	hold, err := frontend.Dial(f.Addr(), "alice", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	op, err := frontend.Dial(f.Addr(), "op", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()

	const scan = "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 1e-31"
	st, err := hold.Query(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wireQuery(op, "SELECT COUNT(*) FROM Object"); !frontend.IsBusy(err) {
		t.Fatalf("a second SELECT with the slot held: %v, want busy", err)
	}
	_, rows, err := wireQuery(op, "SHOW PROCESSLIST")
	if err != nil {
		t.Fatalf("SHOW PROCESSLIST with the slot held: %v", err)
	}
	if len(rows) != 1 || rows[0][len(rows[0])-1] != scan {
		t.Fatalf("SHOW PROCESSLIST = %v, want the held scan", rows)
	}
	id := rows[0][0]
	if _, rows, err = wireQuery(op, fmt.Sprintf("KILL %d", id)); err != nil || len(rows) != 1 || rows[0][0] != id {
		t.Fatalf("KILL %d with the slot held: %v, %v", id, rows, err)
	}
	for _, ok := st.Next(); ok; _, ok = st.Next() {
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("the killed session ended with %v, want %v", err, context.Canceled)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the killed session's slot was not released: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := f.Stats(); st.Shed != 1 || st.Admitted != 1 {
		t.Errorf("admission counted %+v; want the scan admitted, the SELECT shed, and the management statements neither", st)
	}
}
