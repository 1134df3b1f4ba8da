// Command qserv-sql is the interactive SQL client for a qserv-czar
// frontend (the role any MySQL-compatible client plays in the paper):
//
//	qserv-sql -addr 127.0.0.1:7000                      # REPL
//	qserv-sql -addr 127.0.0.1:7000 -e "SELECT COUNT(*) FROM Object"
//
// It speaks the streaming wire protocol: rows print as the czar's merge
// pipeline produces them — the first rows of a multi-hour scan appear
// immediately — and every statement reports first-row latency
// separately from total latency. Ctrl-C during a statement kills the
// in-flight query server-side (worker scan slots free) without ending
// the session. With -e the exit status is 1 when the statement fails.
//
// Besides SELECT, the czar answers the query-management statements of
// the paper's section 5, as it does in process: `SHOW PROCESSLIST;` lists
// in-flight queries (id, scheduling class, age, chunk progress) and
// `KILL <id>;` cancels one — the kill propagates down to the workers'
// scan lanes. The availability subsystem is observable the same way:
// `SHOW WORKERS;` lists per-worker health (alive / suspect / dead,
// consecutive misses, chunk counts) and `SHOW REPAIRS;` the
// replication manager's progress and the placement epoch; `SHOW
// CACHE;` the czar result cache's counters (hits, misses, bytes,
// evictions, stamp invalidations). The frontend itself answers `SHOW
// FRONTEND;`: admission-control pressure (active/queued/shed sessions).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/frontend"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
)

// logger emits the client's structured failures (dial errors).
var logger = telemetry.NewLogger("qserv-sql")

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout)) }

// run is the whole command: it reads statements from in (or takes the one
// -e gives) and writes their answers to out. It returns the exit status: 2
// for arguments it does not take (the usage goes to out), 1 when it cannot
// dial or the -e statement fails, 0 otherwise.
func run(args []string, in io.Reader, out io.Writer) int {
	fs := flag.NewFlagSet("qserv-sql", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:7000", "frontend address")
	query := fs.String("e", "", "execute one statement and exit")
	user := fs.String("user", "anonymous", "user identity for admission control")
	db := fs.String("db", "LSST", "database name")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return 2
	}

	client, err := frontend.Dial(*addr, *user, *db)
	if err != nil {
		logger.Error("dial", "addr", *addr, "err", err)
		return 1
	}
	defer client.Close()

	if *query != "" {
		if !runQuery(client, *query, out) {
			return 1
		}
		return 0
	}

	fmt.Fprintln(out, "qserv-sql — type SQL statements terminated by ';', or 'quit'")
	fmt.Fprintln(out, "           (SHOW PROCESSLIST; lists running queries, KILL <id>; cancels one,")
	fmt.Fprintln(out, "            SHOW WORKERS; worker health, SHOW REPAIRS; repair progress,")
	fmt.Fprintln(out, "            SHOW FRONTEND; admission-control pressure, SHOW CACHE; result cache,")
	fmt.Fprintln(out, "            SHOW METRICS; Prometheus exposition, SHOW PROFILE [<id>]; retained traces,")
	fmt.Fprintln(out, "            EXPLAIN ANALYZE <stmt>; runs the statement and prints its span tree)")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Fprint(out, "qserv> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == "quit" || trimmed == "exit" || trimmed == `\q`) {
			return 0
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			sql := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
			buf.Reset()
			if sql != "" {
				runQuery(client, sql, out)
			}
			fmt.Fprint(out, "qserv> ")
			continue
		}
		fmt.Fprint(out, "    -> ")
	}
	return 0
}

// runQuery streams one statement to out: rows print as they arrive, Ctrl-C
// kills the in-flight query (not the session), and the summary separates
// first-row latency from total latency. It reports whether the statement
// succeeded.
func runQuery(client *frontend.Client, sql string, out io.Writer) bool {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	st, err := client.Query(ctx, sql)
	if err != nil {
		fmt.Fprintf(out, "ERROR: %v\n", err)
		return false
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintln(w, strings.Join(st.Cols(), "\t"))
	fmt.Fprintln(w, strings.Repeat("-", 8*len(st.Cols())))

	var rows int64
	var firstRow time.Duration
	cells := make([]string, len(st.Cols()))
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		if rows == 0 {
			firstRow = time.Since(start)
		}
		rows++
		for i, v := range row {
			cells[i] = sqlengine.FormatValue(v)
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
		if rows%1024 == 0 {
			w.Flush() // keep the terminal live on long streams
		}
	}
	w.Flush()
	total := time.Since(start)
	if err := st.Err(); err != nil {
		fmt.Fprintf(w, "ERROR after %d row(s): %v\n", rows, err)
		return false
	}
	if rows == 0 {
		fmt.Fprintf(w, "0 row(s) in %v%s\n", total.Round(time.Millisecond), statsFooter(st.Stats()))
		return true
	}
	fmt.Fprintf(w, "%d row(s); first row in %v, total %v%s\n",
		rows, firstRow.Round(time.Millisecond), total.Round(time.Millisecond), statsFooter(st.Stats()))
	return true
}

// statsFooter renders the per-statement accounting the Done frame
// carries (empty for SHOW FRONTEND, which never reaches the czar).
func statsFooter(st frontend.DoneStats) string {
	if st.ElapsedNS == 0 && st.Chunks == 0 && st.BytesMerged == 0 {
		return ""
	}
	return fmt.Sprintf(" (czar %v, %d chunk(s), %s merged)",
		time.Duration(st.ElapsedNS).Round(time.Microsecond), st.Chunks, formatBytes(st.BytesMerged))
}

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
