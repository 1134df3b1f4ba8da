package czar

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/sqlengine"
)

// This file is the czar's management statements (paper section 5: the
// master tracks the queries it runs, reports on them and kills them).
// Submit answers them from the czar's own state instead of planning them,
// in process and over the wire alike, with a handle that is already
// finished. The handle is not registered and not counted as a query, so a
// SHOW PROCESSLIST never lists itself.

// statement is one management statement: its words, whether text may
// follow them, and how the czar answers it given that text.
type statement struct {
	words   string
	takesID bool
	answer  func(c *Czar, arg string) (cols []string, rows []sqlengine.Row, err error)
}

// statements is the one table of the management statements: Submit answers
// what it names, and IsManagement recognises it.
var statements = []statement{
	{words: "SHOW PROCESSLIST", answer: (*Czar).showProcesslist},
	{words: "SHOW WORKERS", answer: (*Czar).showWorkers},
	{words: "SHOW REPAIRS", answer: (*Czar).showRepairs},
	{words: "SHOW CACHE", answer: (*Czar).showCache},
	{words: "SHOW METRICS", answer: (*Czar).showMetrics},
	{words: "SHOW PROFILE", takesID: true, answer: (*Czar).showProfile},
	{words: "KILL", takesID: true, answer: (*Czar).kill},
}

// IsManagement reports whether Submit answers sql from the czar's own
// state (a SHOW of the table above, or a KILL) rather than planning it as
// a SELECT. It allocates nothing.
func IsManagement(sql string) bool {
	st, _ := lookup(sql)
	return st != nil
}

// lookup finds the management statement sql is, and the text after its
// words; nil for anything else. The words match in any case, separated by
// any white space, and one trailing ';' is dropped.
func lookup(sql string) (*statement, string) {
	s := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	for i := range statements {
		st := &statements[i]
		if rest, ok := cutWords(s, st.words); ok && (rest == "" || st.takesID) {
			return st, rest
		}
	}
	return nil, ""
}

// cutWords reports whether s begins with the space-separated words, each
// a whole word of s, and returns what follows them, trimmed.
func cutWords(s, words string) (string, bool) {
	for words != "" {
		var w string
		w, words, _ = strings.Cut(words, " ")
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if len(s) < len(w) || !strings.EqualFold(s[:len(w)], w) {
			return "", false
		}
		s = s[len(w):]
		if r, _ := utf8.DecodeRuneInString(s); s != "" && !unicode.IsSpace(r) {
			return "", false
		}
	}
	return strings.TrimSpace(s), true
}

// manage answers a management statement with a finished handle.
func (c *Czar) manage(st *statement, arg, sql string) (*Query, error) {
	cols, rows, err := st.answer(c, arg)
	if err != nil {
		return nil, err
	}
	q, feed := NewQueryHandle(0, sql, core.Interactive)
	feed.SetColumns(cols...)
	feed.Finish(&sqlengine.Result{Cols: cols, Rows: rows}, nil)
	return q, nil
}

func (c *Czar) showProcesslist(string) ([]string, []sqlengine.Row, error) {
	var rows []sqlengine.Row
	for _, qi := range c.Running() {
		rows = append(rows, sqlengine.Row{
			qi.ID,
			qi.Class.String(),
			time.Since(qi.Started).Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", qi.ChunksCompleted, qi.ChunksTotal),
			qi.RowsMerged,
			qi.SQL,
		})
	}
	return []string{"Id", "Class", "Time", "Chunks", "Rows", "Info"}, rows, nil
}

func (c *Czar) showWorkers(string) ([]string, []sqlengine.Row, error) {
	st, ok := c.ClusterStatus()
	if !ok {
		return nil, nil, fmt.Errorf("czar %s: no availability subsystem is wired (SHOW WORKERS needs a membership)", c.cfg.Name)
	}
	var rows []sqlengine.Row
	for _, w := range st.Workers {
		lastSeen := "never"
		if !w.LastSeen.IsZero() {
			lastSeen = time.Since(w.LastSeen).Round(time.Millisecond).String() + " ago"
		}
		rows = append(rows, sqlengine.Row{
			w.Name, w.State.String(), int64(w.Chunks), int64(w.Misses), lastSeen, w.LastErr,
		})
	}
	return []string{"Worker", "State", "Chunks", "Misses", "LastSeen", "LastError"}, rows, nil
}

func (c *Czar) showRepairs(string) ([]string, []sqlengine.Row, error) {
	st, ok := c.ClusterStatus()
	if !ok {
		return nil, nil, fmt.Errorf("czar %s: no availability subsystem is wired (SHOW REPAIRS needs a membership)", c.cfg.Name)
	}
	r := st.Repair
	return []string{"PlacementEpoch", "ChunksRepaired", "ChunksHealed", "ChunksPending", "TablesCopied", "BytesCopied", "LastError"},
		[]sqlengine.Row{{
			st.Epoch, int64(r.ChunksRepaired), int64(r.ChunksHealed), int64(r.ChunksPending),
			int64(r.TablesCopied), r.BytesCopied, r.LastError,
		}}, nil
}

func (c *Czar) showCache(string) ([]string, []sqlengine.Row, error) {
	cs, ok := c.CacheStats()
	if !ok {
		return nil, nil, fmt.Errorf("czar %s: no result cache is enabled (SHOW CACHE needs ResultCacheBytes > 0)", c.cfg.Name)
	}
	rate := "0%"
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		rate = fmt.Sprintf("%.1f%%", 100*float64(cs.Hits)/float64(lookups))
	}
	return []string{"Hits", "Misses", "HitRate", "Entries", "Bytes", "MaxBytes", "Evictions", "Invalidations", "Epoch"},
		[]sqlengine.Row{{
			cs.Hits, cs.Misses, rate, int64(cs.Entries),
			cs.Bytes, cs.MaxBytes, cs.Evictions, cs.Invalidations, cs.Epoch,
		}}, nil
}

// showMetrics answers one row per line of the registry's Prometheus text
// exposition.
func (c *Czar) showMetrics(string) ([]string, []sqlengine.Row, error) {
	if c.tel.Metrics == nil {
		return nil, nil, fmt.Errorf("czar %s: telemetry is disabled (SHOW METRICS needs a metrics registry)", c.cfg.Name)
	}
	return []string{"Metric"}, lines(string(c.tel.Metrics.Exposition())), nil
}

// showProfile answers, without an id, one line per retained trace, newest
// first; with one, the rendered trace of that query.
func (c *Czar) showProfile(arg string) ([]string, []sqlengine.Row, error) {
	if arg == "" {
		var rows []sqlengine.Row
		for _, e := range c.tel.Ring.Recent(32) {
			status := "ok"
			if e.Err != "" {
				status = "error"
			}
			rows = append(rows, sqlengine.Row{fmt.Sprintf("%d  %s  %s  %s",
				e.ID, e.Root.Duration().Round(time.Microsecond), status, e.SQL)})
		}
		if len(rows) == 0 {
			return nil, nil, fmt.Errorf("czar %s: no retained traces (SHOW PROFILE needs tracing enabled and at least one finished query)", c.cfg.Name)
		}
		return []string{"RecentQueries"}, rows, nil
	}
	id, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return nil, nil, fmt.Errorf("czar %s: bad SHOW PROFILE id %q", c.cfg.Name, arg)
	}
	e := c.tel.Ring.Get(id)
	if e == nil {
		return nil, nil, fmt.Errorf("czar %s: no retained trace for query %d (evicted, never traced, or telemetry disabled)", c.cfg.Name, id)
	}
	return []string{"Profile"}, lines(renderProfile(e)), nil
}

func (c *Czar) kill(arg string) ([]string, []sqlengine.Row, error) {
	id, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return nil, nil, fmt.Errorf("czar %s: bad KILL id %q", c.cfg.Name, arg)
	}
	if !c.Kill(id) {
		return nil, nil, fmt.Errorf("czar %s: no such query %d", c.cfg.Name, id)
	}
	return []string{"killed"}, []sqlengine.Row{{id}}, nil
}

// lines makes a one-column row of each line of text.
func lines(text string) []sqlengine.Row {
	var rows []sqlengine.Row
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		rows = append(rows, sqlengine.Row{line})
	}
	return rows
}
