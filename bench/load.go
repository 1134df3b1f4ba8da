package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/frontend"
)

// opResult is one statement's client-side outcome: send to last frame.
type opResult struct {
	total time.Duration
	first time.Duration // send to first row frame; total when no row came
	rows  int64
	err   error
}

// runOp issues one statement over a v2 connection and drains its stream,
// decoding every row as a user's client would.
func runOp(c *frontend.Client, sql string, keep *[][]any) opResult {
	start := time.Now()
	st, err := c.Query(context.Background(), sql)
	if err != nil {
		return opResult{total: time.Since(start), err: err}
	}
	var r opResult
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		if r.rows == 0 {
			r.first = time.Since(start)
		}
		r.rows++
		if keep != nil {
			*keep = append(*keep, row)
		}
	}
	r.total = time.Since(start)
	if r.rows == 0 {
		r.first = r.total
	}
	switch {
	case st.Err() != nil:
		r.err = st.Err()
	case st.RowCount() != r.rows:
		r.err = fmt.Errorf("trailer reports %d rows, stream carried %d", st.RowCount(), r.rows)
	}
	return r
}

// classSamples are one class's successful operations in a timed phase.
type classSamples struct {
	totalMs []float64
	firstMs []float64
	rows    int64
	// In a traced phase every other operation runs inside a client span;
	// the two halves of totalMs are kept apart to price the tracing.
	spannedMs, plainMs []float64
}

// phase is the outcome of one closed-loop phase over all connections.
type phase struct {
	classes   map[string]*classSamples
	attempted int64
	failed    int64
	firstErr  error
	elapsed   time.Duration
	lagMs     []float64 // completion of one op to the send of the next, per op
	startedAt time.Time
	endedAt   time.Time
}

func (p *phase) class(c string) *classSamples {
	cs := p.classes[c]
	if cs == nil {
		cs = &classSamples{}
		p.classes[c] = cs
	}
	return cs
}

// drive runs one closed loop per connection for d: each connection sends
// its next statement only when the previous one has fully arrived, taking
// classes from its rotation in order and statement k = i*len(rotations)+conn
// of each class, so connections never share a statement and the order is
// the same on every run. nextK carries the per-connection, per-class
// counters across phases, so warm-up and timed phase never repeat a
// statement either. A failed operation (error, busy, stream error, wrong
// row count) is counted, and the connection is replaced: a v2 stream error
// closes it, and an unguarded loop would spin on the dead socket.
func drive(addr string, gen *stmtGen, rotations [][]string, nextK []map[string]int, d time.Duration, tr *tracer) (*phase, error) {
	out := &phase{classes: map[string]*classSamples{}}
	parts := make([]*phase, len(rotations))
	clients := make([]*frontend.Client, len(rotations))
	for i := range rotations {
		c, err := frontend.Dial(addr, benchUser, benchDB)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	out.startedAt = time.Now()
	deadline := out.startedAt.Add(d)
	var wg sync.WaitGroup
	for i, rot := range rotations {
		wg.Add(1)
		go func(conn int, rot []string) {
			defer wg.Done()
			p := &phase{classes: map[string]*classSamples{}}
			parts[conn] = p
			c := clients[conn]
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			var lastDone time.Time
			// A connection stops at the first rotation boundary past the
			// deadline, so every class of a rotation is issued equally often.
			for step := 0; step%len(rot) != 0 || time.Now().Before(deadline); step++ {
				class := rot[step%len(rot)]
				k := nextK[conn][class]
				nextK[conn][class]++
				s := gen.make(class, k*len(rotations)+conn)
				if c == nil {
					var err error
					if c, err = frontend.Dial(addr, benchUser, benchDB); err != nil {
						p.attempted++
						p.failed++
						c = nil
						time.Sleep(10 * time.Millisecond)
						continue
					}
				}
				if !lastDone.IsZero() {
					p.lagMs = append(p.lagMs, float64(time.Since(lastDone))/1e6)
				}
				spanned := tr != nil && step/len(rot)%2 == 1 // alternate whole rotations
				id := 0
				if spanned {
					id = tr.start("client."+class, 0, int64(conn)<<32|int64(step))
				}
				r := runOp(c, s.SQL, nil)
				tr.end(id)
				lastDone = time.Now()
				p.attempted++
				if r.err == nil && r.rows != s.Rows {
					r.err = fmt.Errorf("%s returned %d rows, want %d: %s", class, r.rows, s.Rows, s.SQL)
				}
				if r.err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = r.err
					}
					c.Close()
					c = nil
					continue
				}
				cs := p.class(class)
				cs.totalMs = append(cs.totalMs, float64(r.total)/1e6)
				cs.firstMs = append(cs.firstMs, float64(r.first)/1e6)
				cs.rows += r.rows
				if spanned {
					cs.spannedMs = append(cs.spannedMs, float64(r.total)/1e6)
				} else if tr != nil {
					cs.plainMs = append(cs.plainMs, float64(r.total)/1e6)
				}
			}
		}(i, rot)
	}
	wg.Wait()
	out.endedAt = time.Now()
	out.elapsed = out.endedAt.Sub(out.startedAt)
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
		out.lagMs = append(out.lagMs, p.lagMs...)
		for c, cs := range p.classes {
			o := out.class(c)
			o.totalMs = append(o.totalMs, cs.totalMs...)
			o.firstMs = append(o.firstMs, cs.firstMs...)
			o.spannedMs = append(o.spannedMs, cs.spannedMs...)
			o.plainMs = append(o.plainMs, cs.plainMs...)
			o.rows += cs.rows
		}
	}
	return out, nil
}

func newCounters(n int) []map[string]int {
	out := make([]map[string]int, n)
	for i := range out {
		out[i] = map[string]int{}
	}
	return out
}
