// Package scanshare implements shared scanning (convoy scheduling,
// paper section 4.3): when tables are too large to cache, multiple
// concurrent full-scan queries share a single sequential read of the
// table instead of each issuing its own, seek-inducing scan. The table
// is read in pieces; every query attached to the convoy processes each
// piece while it is in memory. A query may join mid-scan: it processes
// pieces from its join point, wraps around, and completes after seeing
// every piece exactly once. Tables are columnar, so a piece is a range
// of row positions, [lo, hi), of the scanned table: what a consumer
// evaluates over it is the engine's business (sqlengine.ScanSource).
//
// The paper had not yet implemented this ("Shared scanning is planned
// for implementation later this year", section 5) but designed Qserv
// around it; this package provides it plus the instrumentation the
// ablation benchmarks use (bytes read from "disk" with and without
// sharing).
package scanshare

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sqlengine"
)

// Scanner runs convoys over one table. It is safe for concurrent use.
type Scanner struct {
	table     *sqlengine.Table
	pieceRows int

	mu        sync.Mutex
	consumers map[*Ticket]bool
	running   bool
	pos       int // next piece index

	bytesRead  int64
	piecesRead int64
	scansSaved int64
}

// NewScanner creates a convoy scanner over a table. pieceRows is the
// number of rows per in-memory piece; it must be positive.
func NewScanner(table *sqlengine.Table, pieceRows int) (*Scanner, error) {
	if table == nil {
		return nil, fmt.Errorf("scanshare: nil table")
	}
	if pieceRows <= 0 {
		return nil, fmt.Errorf("scanshare: pieceRows must be positive, got %d", pieceRows)
	}
	return &Scanner{
		table:     table,
		pieceRows: pieceRows,
		consumers: map[*Ticket]bool{},
	}, nil
}

// pieces returns the number of pieces in the table.
func (s *Scanner) pieces() int {
	n := s.table.Len()
	if n == 0 {
		return 0
	}
	return (n + s.pieceRows - 1) / s.pieceRows
}

// Table returns the table this scanner convoys over.
func (s *Scanner) Table() *sqlengine.Table { return s.table }

// Ticket tracks one query's membership in the convoy.
type Ticket struct {
	s         *Scanner
	process   func(lo, hi int)
	remaining int
	done      chan struct{}
	completed bool        // done closed; guarded by s.mu
	abandoned atomic.Bool // query canceled; drop at the next piece boundary
}

// Wait blocks until the query has seen the whole table (or the ticket
// was abandoned).
func (t *Ticket) Wait() { <-t.done }

// Abandon marks the ticket so the convoy drops it at the next piece
// boundary without delivering further pieces — the query-cancellation
// path: the convoy (and the slots of its other members) is never
// stalled by a killed query, and a sole remaining consumer's abandon
// stops the scan after at most one more physical piece read. Wait
// unblocks once the convoy has dropped the ticket. Safe to call more
// than once and after completion.
func (t *Ticket) Abandon() {
	t.abandoned.Store(true)
	// A convoy that already delivered every piece (or an empty table's
	// pre-completed ticket) will never pass another piece boundary; the
	// completed flag makes the drop here idempotent with run()'s.
	t.s.mu.Lock()
	if _, live := t.s.consumers[t]; !live {
		t.complete()
	}
	t.s.mu.Unlock()
}

// complete closes done exactly once. Callers hold s.mu.
func (t *Ticket) complete() {
	if !t.completed {
		t.completed = true
		close(t.done)
	}
}

// Attach joins the convoy: process is invoked once for every piece of
// the table — rows lo up to hi — in convoy order, starting wherever the
// scan currently is, from the scanner's goroutine. The returned ticket's
// Wait unblocks after the query has seen every piece exactly once.
func (s *Scanner) Attach(process func(lo, hi int)) *Ticket {
	t, _ := s.attach(process)
	return t
}

// attach implements Attach; joined reports whether this consumer shared
// a scan already in flight.
func (s *Scanner) attach(process func(lo, hi int)) (*Ticket, bool) {
	t := &Ticket{s: s, process: process, done: make(chan struct{})}
	s.mu.Lock()
	t.remaining = s.pieces()
	if t.remaining == 0 {
		t.complete()
		s.mu.Unlock()
		return t, false
	}
	joined := len(s.consumers) > 0
	if joined {
		// Joining a convoy in flight: the piece reads from here to this
		// query's completion are shared with the running scan.
		s.scansSaved++
	}
	s.consumers[t] = true
	if !s.running {
		s.running = true
		go s.run()
	}
	s.mu.Unlock()
	return t, joined
}

// Source adapts convoy membership to the pull-based piece iterator the
// SQL engine scans through (it implements sqlengine.ScanSource). The
// convoy's push cadence and the engine's pull cadence meet over an
// unbuffered channel, so the convoy advances at the pace of its
// slowest attached consumer — the paper's shared-scan discipline.
type Source struct {
	ch     chan [2]int // a piece: lo, hi
	closed chan struct{}
	once   sync.Once
	ticket *Ticket
}

// NextPiece returns the next convoy piece; ok is false after the
// consumer has seen every piece exactly once.
func (src *Source) NextPiece() (lo, hi int, ok bool) {
	piece, ok := <-src.ch
	return piece[0], piece[1], ok
}

// Close abandons the source: remaining pieces are discarded so the
// convoy is never stalled by a consumer that stopped reading. Safe to
// call more than once and after exhaustion.
func (src *Source) Close() { src.once.Do(func() { close(src.closed) }) }

// Detach is the cancellation form of Close: it unblocks any in-flight
// delivery and tells the convoy to drop this membership at the next
// piece boundary, so a killed query neither paces the convoy nor keeps
// it reading on its behalf. The Close ordering matters: a delivery
// blocked on src.ch must be released before the convoy can reach the
// boundary where the abandoned ticket is dropped.
func (src *Source) Detach() {
	src.Close()
	src.ticket.Abandon()
}

// AttachSource joins the convoy as a piece iterator. joined reports
// whether an in-flight scan was shared rather than a fresh one started.
func (s *Scanner) AttachSource() (src *Source, joined bool) {
	src = &Source{ch: make(chan [2]int), closed: make(chan struct{})}
	var t *Ticket
	t, joined = s.attach(func(lo, hi int) {
		select {
		case src.ch <- [2]int{lo, hi}:
		case <-src.closed:
		}
	})
	src.ticket = t
	go func() {
		// The last process call returns before the ticket completes
		// (and an abandoned ticket receives no further process calls),
		// so closing here can never race a send.
		t.Wait()
		close(src.ch)
	}()
	return src, joined
}

// run is the convoy loop: read the next piece once, hand it to every
// attached query, advance circularly; stop when nobody is attached.
func (s *Scanner) run() {
	rowWidth := int64(s.table.Schema.RowWidth())
	for {
		s.mu.Lock()
		if len(s.consumers) == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		np := s.pieces()
		if s.pos >= np {
			s.pos = 0
		}
		start := s.pos * s.pieceRows
		end := min(start+s.pieceRows, s.table.Len())
		s.pos++
		// One physical read, shared by every consumer.
		s.bytesRead += int64(end-start) * rowWidth
		s.piecesRead++
		members := make([]*Ticket, 0, len(s.consumers))
		for t := range s.consumers {
			members = append(members, t)
		}
		s.mu.Unlock()

		var finished []*Ticket
		for _, t := range members {
			if t.abandoned.Load() {
				// Dropped at the piece boundary: no delivery, and the
				// consumer stops counting toward the convoy's pace.
				finished = append(finished, t)
				continue
			}
			t.process(start, end)
			if t.remaining--; t.remaining == 0 {
				finished = append(finished, t)
			}
		}
		if len(finished) > 0 {
			s.mu.Lock()
			for _, t := range finished {
				delete(s.consumers, t)
				t.complete()
			}
			s.mu.Unlock()
		}
	}
}

// BytesRead returns the total bytes physically read so far.
func (s *Scanner) BytesRead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesRead
}

// PiecesRead returns the number of piece reads performed.
func (s *Scanner) PiecesRead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.piecesRead
}

// ScansSaved counts queries that shared an in-flight scan rather than
// starting their own.
func (s *Scanner) ScansSaved() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scansSaved
}

// CountWhere attaches a counting query to the convoy: it counts rows
// satisfying pred and returns the count after the full pass. It boxes
// every row for pred: a demonstration and test helper, not a scan path.
func (s *Scanner) CountWhere(pred func(sqlengine.Row) bool) int64 {
	var mu sync.Mutex
	var n int64
	t := s.Attach(func(lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			if pred(s.table.Row(i)) {
				local++
			}
		}
		mu.Lock()
		n += local
		mu.Unlock()
	})
	t.Wait()
	return n
}

// IndependentScanBytes returns the bytes N independent (unshared) scans
// of the table would read — the baseline the paper's design argues
// against.
func IndependentScanBytes(table *sqlengine.Table, n int) int64 {
	return int64(n) * table.ByteSize()
}
