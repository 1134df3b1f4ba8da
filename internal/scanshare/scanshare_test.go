package scanshare

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

func bigTable(t testing.TB, rows int) *sqlengine.Table {
	t.Helper()
	tbl := sqlengine.NewTable("T", sqlengine.Schema{
		{Name: "id", Type: sqlparse.TypeInt},
		{Name: "x", Type: sqlparse.TypeFloat},
	})
	batch := make([]sqlengine.Row, rows)
	for i := 0; i < rows; i++ {
		batch[i] = sqlengine.Row{int64(i), float64(i) * 0.5}
	}
	if err := tbl.Insert(batch...); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSingleQuerySeesAllRows(t *testing.T) {
	tbl := bigTable(t, 1000)
	s, err := NewScanner(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := s.CountWhere(func(r sqlengine.Row) bool { return true })
	if n != 1000 {
		t.Fatalf("saw %d rows, want 1000", n)
	}
	if s.BytesRead() != tbl.ByteSize() {
		t.Errorf("bytes read = %d, want %d (exactly one pass)", s.BytesRead(), tbl.ByteSize())
	}
}

func TestEachConsumerSeesEachRowOnce(t *testing.T) {
	tbl := bigTable(t, 500)
	s, err := NewScanner(tbl, 32)
	if err != nil {
		t.Fatal(err)
	}
	const consumers = 8
	var wg sync.WaitGroup
	counts := make([]int64, consumers)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seen := map[int64]int{}
			var mu sync.Mutex
			tk := s.Attach(func(lo, hi int) {
				mu.Lock()
				for r := lo; r < hi; r++ {
					seen[s.Table().Int(r, 0)]++
				}
				mu.Unlock()
			})
			tk.Wait()
			mu.Lock()
			defer mu.Unlock()
			for id, c := range seen {
				if c != 1 {
					t.Errorf("consumer %d saw row %d %d times", i, id, c)
				}
			}
			atomic.StoreInt64(&counts[i], int64(len(seen)))
		}(i)
	}
	wg.Wait()
	for i, c := range counts {
		if c != 500 {
			t.Errorf("consumer %d saw %d distinct rows", i, c)
		}
	}
}

func TestSharingReducesIO(t *testing.T) {
	// The core claim of section 4.3: k concurrent scans cost about one
	// scan of I/O, not k scans.
	tbl := bigTable(t, 2000)
	s, err := NewScanner(tbl, 50)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	// Attach all k queries before waiting so they join one convoy
	// (Attach is non-blocking; a goroutine race would let early
	// finishers complete before later queries join).
	var tickets []*Ticket
	var mu sync.Mutex
	counts := make([]int64, k)
	for i := 0; i < k; i++ {
		i := i
		tickets = append(tickets, s.Attach(func(lo, hi int) {
			mu.Lock()
			for r := lo; r < hi; r++ {
				if s.Table().Float(r, 1) > 100 {
					counts[i]++
				}
			}
			mu.Unlock()
		}))
	}
	for _, tk := range tickets {
		tk.Wait()
	}
	shared := s.BytesRead()
	independent := IndependentScanBytes(tbl, k)
	// All k queries race to attach; in the worst case stragglers add a
	// wrap-around pass each, but total I/O must stay well under k
	// separate scans.
	if shared >= independent/2 {
		t.Errorf("shared I/O %d not much better than independent %d", shared, independent)
	}
	if s.BytesRead() < tbl.ByteSize() {
		t.Errorf("less than one full scan performed: %d", s.BytesRead())
	}
}

func TestMidScanJoinWrapsAround(t *testing.T) {
	tbl := bigTable(t, 1000)
	s, err := NewScanner(tbl, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Start a slow consumer to keep the convoy rolling.
	var slowStarted sync.WaitGroup
	slowStarted.Add(1)
	first := true
	tkSlow := s.Attach(func(lo, hi int) {
		if first {
			first = false
			slowStarted.Done()
		}
		time.Sleep(100 * time.Microsecond)
	})
	slowStarted.Wait()
	// Join mid-scan; must still see all 1000 rows exactly once.
	var n int64
	tk := s.Attach(func(lo, hi int) {
		atomic.AddInt64(&n, int64(hi-lo))
	})
	tk.Wait()
	if got := atomic.LoadInt64(&n); got != 1000 {
		t.Errorf("mid-scan joiner saw %d rows", got)
	}
	tkSlow.Wait()
	if s.ScansSaved() == 0 {
		t.Error("mid-scan join not counted as a saved scan")
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := sqlengine.NewTable("E", sqlengine.Schema{{Name: "a", Type: sqlparse.TypeInt}})
	s, err := NewScanner(tbl, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := s.CountWhere(func(sqlengine.Row) bool { return true })
	if n != 0 || s.BytesRead() != 0 {
		t.Errorf("empty table: n=%d bytes=%d", n, s.BytesRead())
	}
}

func TestScannerStopsWhenIdle(t *testing.T) {
	tbl := bigTable(t, 100)
	s, err := NewScanner(tbl, 10)
	if err != nil {
		t.Fatal(err)
	}
	s.CountWhere(func(sqlengine.Row) bool { return true })
	before := s.PiecesRead()
	time.Sleep(20 * time.Millisecond)
	if s.PiecesRead() != before {
		t.Error("scanner kept reading with no consumers")
	}
	// A new consumer restarts it.
	n := s.CountWhere(func(sqlengine.Row) bool { return true })
	if n != 100 {
		t.Errorf("restart: n=%d", n)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewScanner(nil, 10); err == nil {
		t.Error("nil table should fail")
	}
	tbl := bigTable(t, 10)
	if _, err := NewScanner(tbl, 0); err == nil {
		t.Error("zero piece size should fail")
	}
}

func BenchmarkSharedScan8Queries(b *testing.B) {
	tbl := bigTable(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := NewScanner(tbl, 256)
		var wg sync.WaitGroup
		for k := 0; k < 8; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.CountWhere(func(r sqlengine.Row) bool { return r[1].(float64) > 500 })
			}()
		}
		wg.Wait()
	}
}

func BenchmarkIndependentScan8Queries(b *testing.B) {
	tbl := bigTable(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for k := 0; k < 8; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each query runs its own private scan.
				s, _ := NewScanner(tbl, 256)
				s.CountWhere(func(r sqlengine.Row) bool { return r[1].(float64) > 500 })
			}()
		}
		wg.Wait()
	}
}

// drainSource pulls every piece from a source, returning the set of ids
// seen and how many times each appeared.
func drainSource(tbl *sqlengine.Table, src *Source) map[int64]int {
	seen := map[int64]int{}
	for {
		lo, hi, ok := src.NextPiece()
		if !ok {
			return seen
		}
		for r := lo; r < hi; r++ {
			seen[tbl.Int(r, 0)]++
		}
	}
}

func TestSourceMidScanJoinExactlyOnce(t *testing.T) {
	const rows, piece = 1000, 64
	tbl := bigTable(t, rows)
	s, err := NewScanner(tbl, piece)
	if err != nil {
		t.Fatal(err)
	}

	srcA, joinedA := s.AttachSource()
	if joinedA {
		t.Error("first source cannot share an in-flight scan")
	}
	// Consume a few pieces so the convoy position is mid-table, then
	// join a second source: it must start at the current position, wrap
	// around, and still see every row exactly once.
	for i := 0; i < 3; i++ {
		if _, _, ok := srcA.NextPiece(); !ok {
			t.Fatal("source A exhausted too early")
		}
	}
	srcB, joinedB := s.AttachSource()
	if !joinedB {
		t.Error("mid-scan attach must report a shared scan")
	}

	var wg sync.WaitGroup
	var seenA, seenB map[int64]int
	wg.Add(2)
	go func() { defer wg.Done(); rest := drainSource(tbl, srcA); seenA = rest }()
	go func() { defer wg.Done(); seenB = drainSource(tbl, srcB) }()
	wg.Wait()

	// A consumed 3 pieces before the goroutine drained the rest.
	if got := len(seenA); got != rows-3*piece {
		t.Errorf("source A remainder saw %d rows, want %d", got, rows-3*piece)
	}
	if got := len(seenB); got != rows {
		t.Errorf("source B saw %d distinct rows, want %d", got, rows)
	}
	for id, n := range seenB {
		if n != 1 {
			t.Fatalf("source B saw row %d %d times", id, n)
		}
	}
	if s.ScansSaved() != 1 {
		t.Errorf("ScansSaved = %d, want 1", s.ScansSaved())
	}
}

func TestSourceCloseMidScanDoesNotStallConvoy(t *testing.T) {
	tbl := bigTable(t, 2000)
	s, err := NewScanner(tbl, 32)
	if err != nil {
		t.Fatal(err)
	}
	quitter, _ := s.AttachSource()
	if _, _, ok := quitter.NextPiece(); !ok {
		t.Fatal("no first piece")
	}
	quitter.Close()
	quitter.Close() // idempotent

	// A well-behaved source attached afterwards must still complete.
	src, _ := s.AttachSource()
	done := make(chan map[int64]int, 1)
	go func() { done <- drainSource(tbl, src) }()
	select {
	case seen := <-done:
		if len(seen) != 2000 {
			t.Errorf("saw %d rows, want 2000", len(seen))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("convoy stalled by an abandoned source")
	}
}

// TestAbandonDropsTicketAtPieceBoundary kills one convoy member
// mid-scan: the abandoned ticket's Wait unblocks promptly, the other
// member still sees every row exactly once, and the convoy does not
// keep reading for the dead query once it is the last consumer.
func TestAbandonDropsTicketAtPieceBoundary(t *testing.T) {
	tbl := bigTable(t, 2000)
	s, err := NewScanner(tbl, 32)
	if err != nil {
		t.Fatal(err)
	}

	// Throttled survivor paces the convoy so the abandon lands mid-scan.
	var survivorRows atomic.Int64
	survivor := s.Attach(func(lo, hi int) {
		survivorRows.Add(int64(hi - lo))
		time.Sleep(100 * time.Microsecond)
	})

	var victimRows atomic.Int64
	victim := s.Attach(func(lo, hi int) { victimRows.Add(int64(hi - lo)) })
	for victimRows.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	victim.Abandon()
	done := make(chan struct{})
	go func() { victim.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned ticket's Wait never unblocked")
	}
	droppedAt := victimRows.Load()
	if droppedAt >= 2000 {
		t.Errorf("victim saw the whole table (%d rows) despite the abandon", droppedAt)
	}

	survivor.Wait()
	if survivorRows.Load() != 2000 {
		t.Errorf("survivor saw %d rows, want 2000", survivorRows.Load())
	}
	// No further delivery after the drop boundary: at most one piece
	// could have been in flight when Abandon was called.
	if victimRows.Load() > droppedAt {
		t.Errorf("victim kept receiving pieces after the drop: %d -> %d", droppedAt, victimRows.Load())
	}
}

// TestAbandonLastConsumerStopsScan abandons the only consumer: the
// convoy must stop reading instead of finishing the pass for a dead
// query.
func TestAbandonLastConsumerStopsScan(t *testing.T) {
	tbl := bigTable(t, 4000)
	s, err := NewScanner(tbl, 16)
	if err != nil {
		t.Fatal(err)
	}
	var rows atomic.Int64
	tk := s.Attach(func(lo, hi int) {
		rows.Add(int64(hi - lo))
		time.Sleep(100 * time.Microsecond)
	})
	for rows.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	tk.Abandon()
	tk.Wait()
	if s.BytesRead() >= tbl.ByteSize() {
		t.Errorf("convoy read %d bytes of a %d-byte table for a dead query", s.BytesRead(), tbl.ByteSize())
	}
	// Abandon after completion is a no-op.
	tk.Abandon()

	// The scanner is reusable afterwards.
	if n := s.CountWhere(func(sqlengine.Row) bool { return true }); n != 4000 {
		t.Errorf("post-abandon scan saw %d rows", n)
	}
}

// TestSourceDetachUnblocksBlockedDelivery kills a source whose engine
// side stopped pulling while the convoy is mid-delivery: Detach must
// release the blocked process call and drop the membership.
func TestSourceDetachUnblocksBlockedDelivery(t *testing.T) {
	tbl := bigTable(t, 1000)
	s, err := NewScanner(tbl, 16)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := s.AttachSource()
	if _, _, ok := src.NextPiece(); !ok {
		t.Fatal("no first piece")
	}
	// Stop pulling; the convoy will block delivering the next piece.
	time.Sleep(5 * time.Millisecond)
	src.Detach()

	// A fresh consumer must still complete: the convoy was not wedged.
	done := make(chan map[int64]int, 1)
	fresh, _ := s.AttachSource()
	go func() { done <- drainSource(tbl, fresh) }()
	select {
	case seen := <-done:
		if len(seen) != 1000 {
			t.Errorf("saw %d rows, want 1000", len(seen))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("convoy wedged by a detached source")
	}
}
