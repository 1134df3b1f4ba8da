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
// the session.
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
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/frontend"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
)

var (
	addrFlag  = flag.String("addr", "127.0.0.1:7000", "frontend address")
	queryFlag = flag.String("e", "", "execute one statement and exit")
	userFlag  = flag.String("user", "anonymous", "user identity for admission control")
	dbFlag    = flag.String("db", "LSST", "database name")
)

// logger emits the client's structured failures (dial errors).
var logger = telemetry.NewLogger("qserv-sql")

func main() {
	flag.Parse()

	client, err := frontend.Dial(*addrFlag, *userFlag, *dbFlag)
	if err != nil {
		logger.Error("dial", "addr", *addrFlag, "err", err)
		os.Exit(1)
	}
	defer client.Close()

	if *queryFlag != "" {
		runQuery(client, *queryFlag)
		return
	}

	fmt.Println("qserv-sql — type SQL statements terminated by ';', or 'quit'")
	fmt.Println("           (SHOW PROCESSLIST; lists running queries, KILL <id>; cancels one,")
	fmt.Println("            SHOW WORKERS; worker health, SHOW REPAIRS; repair progress,")
	fmt.Println("            SHOW FRONTEND; admission-control pressure, SHOW CACHE; result cache,")
	fmt.Println("            SHOW METRICS; Prometheus exposition, SHOW PROFILE [<id>]; retained traces,")
	fmt.Println("            EXPLAIN ANALYZE <stmt>; runs the statement and prints its span tree)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("qserv> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == "quit" || trimmed == "exit" || trimmed == `\q`) {
			return
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			sql := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
			buf.Reset()
			if sql != "" {
				runQuery(client, sql)
			}
			fmt.Print("qserv> ")
			continue
		}
		fmt.Print("    -> ")
	}
}

// runQuery streams one statement: rows print as they arrive, Ctrl-C kills
// the in-flight query (not the session), and the summary separates
// first-row latency from total latency.
func runQuery(client *frontend.Client, sql string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	st, err := client.Query(ctx, sql)
	if err != nil {
		fmt.Printf("ERROR: %v\n", err)
		return
	}
	w := bufio.NewWriter(os.Stdout)
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
		fmt.Printf("ERROR after %d row(s): %v\n", rows, err)
		return
	}
	if rows == 0 {
		fmt.Printf("0 row(s) in %v%s\n", total.Round(time.Millisecond), statsFooter(st.Stats()))
		return
	}
	fmt.Printf("%d row(s); first row in %v, total %v%s\n",
		rows, firstRow.Round(time.Millisecond), total.Round(time.Millisecond), statsFooter(st.Stats()))
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
