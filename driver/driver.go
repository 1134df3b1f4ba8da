// Package qservdriver is a database/sql driver for the system's
// streaming SQL frontend: the "any MySQL-compatible client" promise
// of paper section 5.4, delivered through Go's standard database API
// instead of a bespoke client.
//
//	import (
//	    "database/sql"
//	    _ "repro/driver"
//	)
//	db, err := sql.Open("qserv", "qserv://alice@127.0.0.1:4040/LSST")
//	rows, err := db.QueryContext(ctx, "SELECT objectId, ra_PS FROM Object WHERE objectId = ?", 42)
//
// Rows stream: sql.Rows.Next returns rows as the czar's merge pipeline
// produces them, so iterating a multi-hour scan's result starts
// immediately rather than after the scan. Canceling the query's
// context kills the server-side session end-to-end (czar registry,
// fabric transactions, worker scan lanes). The driver is read-only —
// the system is an analytics database — so Exec and transactions are
// rejected.
//
// Placeholders ('?') are interpolated client-side before submission;
// the wire protocol has no prepared statements. Interpolation is
// literal-aware (a '?' inside a quoted string is data, not a
// placeholder) and renders strings with full escaping.
package qservdriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/frontend"
	"repro/internal/sqlengine"
)

func init() { sql.Register("qserv", &Driver{}) }

// Driver is the database/sql driver entry point, registered as
// "qserv".
type Driver struct{}

// Open connects using a qserv:// DSN (see ParseDSN).
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := NewConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector implements driver.DriverContext, letting database/sql
// parse the DSN once instead of per connection.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	return NewConnector(dsn)
}

// Connector dials frontend connections for one parsed DSN.
type Connector struct {
	Addr string // host:port of the frontend listener
	User string // admission-control identity
	DB   string // database name (informational today)
}

// NewConnector parses a DSN of the form qserv://user@host:port/db.
// User defaults to "anonymous", the database to "LSST", the port to
// 4040.
func NewConnector(dsn string) (*Connector, error) {
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("qservdriver: bad DSN %q: %w", dsn, err)
	}
	if u.Scheme != "qserv" {
		return nil, fmt.Errorf("qservdriver: bad DSN %q: scheme must be qserv://", dsn)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("qservdriver: bad DSN %q: missing host", dsn)
	}
	c := &Connector{Addr: u.Host, User: "anonymous", DB: "LSST"}
	if u.Port() == "" {
		c.Addr = u.Host + ":4040"
	}
	if u.User != nil && u.User.Username() != "" {
		c.User = u.User.Username()
	}
	if db := strings.TrimPrefix(u.Path, "/"); db != "" {
		c.DB = db
	}
	return c, nil
}

// Connect dials one frontend connection.
func (c *Connector) Connect(ctx context.Context) (driver.Conn, error) {
	type dialed struct {
		cl  *frontend.Client
		err error
	}
	ch := make(chan dialed, 1)
	go func() {
		cl, err := frontend.Dial(c.Addr, c.User, c.DB)
		ch <- dialed{cl, err}
	}()
	select {
	case d := <-ch:
		if d.err != nil {
			return nil, d.err
		}
		return &conn{cl: d.cl}, nil
	case <-ctx.Done():
		go func() { // don't leak the connection if the dial still lands
			if d := <-ch; d.err == nil {
				d.cl.Close()
			}
		}()
		return nil, ctx.Err()
	}
}

// Driver returns the driver the connector belongs to.
func (c *Connector) Driver() driver.Driver { return &Driver{} }

// conn is one frontend connection: a single in-flight query session at
// a time (database/sql pools connections for parallelism).
type conn struct {
	cl *frontend.Client
}

var errReadOnly = errors.New("qservdriver: the database is read-only (no Exec, no transactions)")

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	n, err := numInput(query)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, query: query, n: n}, nil
}

func (c *conn) Close() error              { return c.cl.Close() }
func (c *conn) Begin() (driver.Tx, error) { return nil, errReadOnly }
func (c *conn) Ping(ctx context.Context) error {
	type res struct{ err error }
	ch := make(chan res, 1)
	go func() { ch <- res{c.cl.Ping()} }()
	select {
	case r := <-ch:
		return r.err
	case <-ctx.Done():
		c.cl.Close() // poisoned: a late pong would desync the stream
		return ctx.Err()
	}
}

// QueryContext implements driver.QueryerContext: interpolate, submit,
// and hand back a streaming row source.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	sql, err := interpolate(query, args)
	if err != nil {
		return nil, err
	}
	st, err := c.cl.Query(ctx, sql)
	if err != nil {
		// An admission rejection or query error leaves the connection
		// healthy; a wire error does not. database/sql retires the
		// connection on ErrBadConn, so only report it for wire damage.
		if frontend.IsBusy(err) || strings.Contains(err.Error(), "server error") {
			return nil, err
		}
		return nil, driver.ErrBadConn
	}
	return &rows{st: st}, nil
}

// ExecContext rejects writes without consuming a server round trip.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	return nil, errReadOnly
}

// stmt is a client-side prepared statement (the wire has none; only
// the placeholder count is "prepared").
type stmt struct {
	c     *conn
	query string
	n     int
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return s.n }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) { return nil, errReadOnly }

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	named := make([]driver.NamedValue, len(args))
	for i, a := range args {
		named[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return s.c.QueryContext(context.Background(), s.query, named)
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.c.QueryContext(ctx, s.query, args)
}

// rows adapts a frontend.Stream to driver.Rows: each Next is one
// streamed row, arriving as the server merges it.
type rows struct {
	st *frontend.Stream
}

func (r *rows) Columns() []string { return r.st.Cols() }

func (r *rows) Close() error { return r.st.Close() }

func (r *rows) Next(dest []driver.Value) error {
	row, ok := r.st.Next()
	if !ok {
		if err := r.st.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	for i := range dest {
		dest[i] = toDriverValue(row[i])
	}
	return nil
}

func toDriverValue(v sqlengine.Value) driver.Value {
	switch x := v.(type) {
	case nil, int64, float64, string:
		return x
	default:
		return sqlengine.FormatValue(v)
	}
}

// ---------- client-side placeholder interpolation ----------

// numInput counts '?' placeholders outside quoted strings and backtick
// identifiers.
func numInput(query string) (int, error) {
	n := 0
	err := scanPlaceholders(query, func(*strings.Builder) error { n++; return nil }, nil)
	return n, err
}

// interpolate substitutes each placeholder with the rendered literal of
// its argument.
func interpolate(query string, args []driver.NamedValue) (string, error) {
	want, err := numInput(query)
	if err != nil {
		return "", err
	}
	if want != len(args) {
		return "", fmt.Errorf("qservdriver: query has %d placeholders, got %d args", want, len(args))
	}
	var b strings.Builder
	b.Grow(len(query) + 16*len(args))
	i := 0
	if err := scanPlaceholders(query, func(out *strings.Builder) error {
		lit, err := renderValue(args[i].Value)
		if err != nil {
			return err
		}
		out.WriteString(lit)
		i++
		return nil
	}, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// scanPlaceholders walks query honoring the engine lexer's quoting
// rules — single/double-quoted strings with backslash escapes and
// doubled-quote escapes, backtick identifiers — calling onPlaceholder
// for each bare '?'. When out is non-nil, all non-placeholder bytes
// are copied to it.
func scanPlaceholders(query string, onPlaceholder func(*strings.Builder) error, out *strings.Builder) error {
	emit := func(s string) {
		if out != nil {
			out.WriteString(s)
		}
	}
	for i := 0; i < len(query); i++ {
		ch := query[i]
		switch ch {
		case '?':
			if onPlaceholder != nil {
				if err := onPlaceholder(out); err != nil {
					return err
				}
			}
		case '\'', '"', '`':
			quote := ch
			j := i + 1
			for j < len(query) {
				c := query[j]
				if c == '\\' && quote != '`' && j+1 < len(query) {
					j += 2
					continue
				}
				if c == quote {
					if j+1 < len(query) && query[j+1] == quote && quote != '`' {
						j += 2 // doubled-quote escape
						continue
					}
					break
				}
				j++
			}
			if j >= len(query) {
				return fmt.Errorf("qservdriver: unterminated %q-quoted literal", quote)
			}
			emit(query[i : j+1])
			i = j
		default:
			emit(query[i : i+1])
		}
	}
	return nil
}

// renderValue renders one driver.Value as a SQL literal the engine's
// lexer parses back to the same value.
func renderValue(v driver.Value) (string, error) {
	switch x := v.(type) {
	case nil:
		return "NULL", nil
	case int64:
		return strconv.FormatInt(x, 10), nil
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), nil
	case bool:
		if x {
			return "1", nil
		}
		return "0", nil
	case string:
		return quoteString(x), nil
	case []byte:
		return quoteString(string(x)), nil
	case time.Time:
		return quoteString(x.UTC().Format("2006-01-02 15:04:05")), nil
	default:
		return "", fmt.Errorf("qservdriver: unsupported argument type %T", v)
	}
}

// quoteString single-quotes s with backslash escaping (the engine
// lexer's escape rules).
func quoteString(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\'', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case 0:
			b.WriteString(`\0`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('\'')
	return b.String()
}
