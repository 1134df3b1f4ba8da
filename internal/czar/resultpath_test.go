package czar

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/dump"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// hv2Columns is the select list of the paper's High Volume 2 statement as
// bench/ issues it: nine numeric columns.
const hv2Columns = "objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS"

// hv2Engine holds one chunk table of n rows of the 13-column Object schema.
func hv2Engine(tb testing.TB, n int) *sqlengine.Engine {
	tb.Helper()
	info, err := planRegistry(tb).Table("Object")
	if err != nil {
		tb.Fatal(err)
	}
	t := sqlengine.NewTable("Object_221", info.Schema)
	rows := make([]sqlengine.Row, n)
	for i := range rows {
		f := 1e-28 * float64(1+i%97)
		rows[i] = sqlengine.Row{int64(1000 + i), 10 + float64(i%49)/25, float64(i%51)/25 - 1,
			f, 2 * f, 3 * f, 4 * f, 5 * f, 6 * f, 7 * f, 0.5, int64(221), int64(i % 40)}
	}
	if err := t.Insert(rows...); err != nil {
		tb.Fatal(err)
	}
	e := sqlengine.New("LSST")
	e.CreateDatabase("LSST").Put(t)
	return e
}

// hv2Stream runs the HV2 chunk statement over a table of n rows, one in
// ten of which it returns, and frames the result stream as a worker does.
func hv2Stream(tb testing.TB, e *sqlengine.Engine, out *dump.Writer) []byte {
	tb.Helper()
	sel, err := sqlparse.ParseSelect("SELECT " + hv2Columns + " FROM LSST.Object_221 AS Object WHERE objectId % 10 = 0")
	if err != nil {
		tb.Fatal(err)
	}
	res, err := e.ExecuteStmtOpts(sel, sqlengine.ExecOptions{Sink: out})
	if err != nil {
		tb.Fatal(err)
	}
	return out.Frame("r_0123456789abcdef", res.Schema(), 0)
}

// TestAbsorbAllocBudget pins what folding a pass-through chunk result
// costs the czar: the stream is walked, not opened, so the count does not
// depend on its rows. (Decoding the same 240 rows boxed took 4,574
// allocations: a row, a box and a converted box per cell.)
func TestAbsorbAllocBudget(t *testing.T) {
	plan := planFor(t, "SELECT "+hv2Columns+" FROM Object", false)
	if !plan.Streamable() {
		t.Fatal("HV2 does not plan as a pass-through statement")
	}
	for _, rows := range []int{240, 480} {
		stream := hv2Stream(t, hv2Engine(t, rows*10), new(dump.Writer))
		s := testSession(plan, compactRows)
		allocs := testing.AllocsPerRun(50, func() {
			if b, err := s.absorb(stream, nil); err != nil || b.Len() != rows {
				t.Fatalf("absorbed %d rows of %d: %v", b.Len(), rows, err)
			}
		})
		if allocs > 8 {
			t.Errorf("absorbing a %d-row pass-through stream: %.0f allocations (budget 8)", rows, allocs)
		}
	}
}

// BenchmarkResultPath prices a pass-through result row from a worker's
// column slices to the client's socket, without the scan around it or the
// fabric in between: one 2,400-row chunk table, a statement that returns
// one row in ten (a predicate that costs next to nothing), its cells
// written into the result stream, the stream absorbed by a merge session
// and forwarded to the row stream, and every batch written as a row frame —
// the length prefix, tag and row count frontend.writeBatch puts ahead of a
// batch, then the batch's bytes — into a writer that discards, in ns per
// row. `make bench-layers` runs it.
func BenchmarkResultPath(b *testing.B) {
	e := hv2Engine(b, 2400)
	plan := planFor(b, "SELECT "+hv2Columns+" FROM Object", false)
	engine := testSession(plan, compactRows).engine
	w := bufio.NewWriter(io.Discard)
	var out dump.Writer
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Buf, out.Rows = out.Buf[:0], 0 // a worker's row buffers are recycled too
		session := newMergeSession(plan, engine, compactRows, true)
		batch, err := session.absorb(hv2Stream(b, e, &out), nil)
		if err != nil {
			b.Fatal(err)
		}
		q, _ := NewQueryHandle(1, "", plan.Class)
		q.stream.push(batch)
		q.stream.close()
		it := q.Rows()
		for batch, ok := it.NextBatch(); ok; batch, ok = it.NextBatch() {
			var scratch [binary.MaxVarintLen64]byte
			count := binary.AppendUvarint(scratch[:0], uint64(batch.Len()))
			hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(1+len(count)+len(batch.Data)))
			w.Write(append(append(hdr, 'R'), count...))
			w.Write(batch.Data)
			rows += batch.Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row-out")
}

// BenchmarkMergeSession prices what one chunk result costs an aggregate
// plan's session, at the repository benchmark's chunk count and at the
// paper's: sessions absorb N one-row partial streams each — HV1's shape,
// every partial in one group, and HV3's, a group per chunk — and finish. An
// op is one chunk result, its share of the session's finish included.
// `make bench-layers` runs it.
func BenchmarkMergeSession(b *testing.B) {
	engine := sqlengine.New("LSST")
	for _, shape := range []struct{ name, sql, cols string }{
		{"HV1", "SELECT COUNT(*) FROM Object", "qserv_c0"},
		{"HV3", "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId",
			"qserv_c0,qserv_c1,qserv_c2,qserv_c3,qserv_c4,qserv_c5"},
	} {
		plan := planFor(b, shape.sql, true)
		for _, n := range []int{94, 8983} {
			streams := make([][]byte, n)
			for i := range streams {
				row := sqlengine.Row{int64(2400), 1.5 * float64(i), int64(2400), -0.5 * float64(i), int64(2400), int64(i)}
				streams[i] = stream(shape.cols, row[6-len(plan.ResultColumns):])
			}
			b.Run(fmt.Sprintf("%s/chunks=%d", shape.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for done := 0; done < b.N; done += n {
					s := newMergeSession(plan, engine, compactRows, false)
					for _, data := range streams[:min(n, b.N-done)] {
						if _, err := s.absorb(data, nil); err != nil {
							b.Fatal(err)
						}
					}
					if res, _, err := s.finish(); err != nil || res.Stats.RowsOut == 0 {
						b.Fatalf("finished to %+v: %v", res, err)
					}
				}
			})
		}
	}
}

// TestAppendSessionSchemaFitsTheCells: a plan that appends chunk results
// and runs a merge statement over them types the session table from the
// cells the absorbed batches hold, not from what any one stream declares —
// a declaration can be a guess (DOUBLE, from a chunk that had no row to
// guess from), and a table converts what it is given.
func TestAppendSessionSchemaFitsTheCells(t *testing.T) {
	plan := planFor(t, "SELECT objectId, ra_PS, decl_PS FROM Object ORDER BY ra_PS", false)
	if plan.Streamable() {
		t.Fatal("an ORDER BY statement planned as pass-through")
	}
	declared := func(types []sqlparse.ColType, rows ...sqlengine.Row) []byte {
		return []byte(dump.Dump("r", &sqlengine.Result{Cols: []string{"objectId", "ra_PS", "decl_PS"}, Types: types, Rows: rows}))
	}
	guessed := []sqlparse.ColType{sqlparse.TypeFloat, sqlparse.TypeFloat, sqlparse.TypeFloat}
	typed := []sqlparse.ColType{sqlparse.TypeInt, sqlparse.TypeFloat, sqlparse.TypeFloat}
	const big = int64(1<<53 + 1) // not a float64
	s := testSession(plan, compactRows)
	for _, data := range [][]byte{
		declared(guessed), // arrives first: its names and types head the session
		declared(typed, sqlengine.Row{big, 1.5, nil}),
		declared(guessed, sqlengine.Row{int64(2), int64(3), nil}), // integers under a DOUBLE heading
	} {
		if _, err := s.absorb(data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.batches) != 2 {
		t.Fatalf("the session holds %d batches, want the two that have rows", len(s.batches))
	}
	// The merge statement is a SELECT * over the session table: its answer
	// has the table's types and the cells as the table converted them.
	res, out, err := s.finish()
	if err != nil || res.Rows != nil || out.Len() != 2 {
		t.Fatalf("finished with %d encoded rows and %d boxed: %v", out.Len(), len(res.Rows), err)
	}
	want := []sqlparse.ColType{sqlparse.TypeInt, sqlparse.TypeFloat, sqlparse.TypeFloat} // all integers; both; no value
	for i, col := range res.Schema() {
		if col.Type != want[i] {
			t.Errorf("column %s typed %v, want %v", col.Name, col.Type, want[i])
		}
	}
	rows := out.Box(nil)
	if got := rows[0]; got[0] != big || got[1] != 1.5 || got[2] != nil {
		t.Errorf("first row of the answer: %v", got)
	}
	if got := rows[1]; got[0] != int64(2) || got[1] != 3.0 {
		t.Errorf("second row of the answer: %v", got)
	}
}

// TestRowStreamHandsOutPrivateRows: the stream holds bytes and has one
// reader. The first Rows gets them — Next as rows of its own, NextBatch as
// what is left of a batch Next began, then whole batches — and the stream
// keeps none it handed out; a second Rows gets ErrRowsTaken, and a Wait
// after Rows carries no rows. A Wait that comes first takes the rows boxed,
// and every Wait after it returns them.
func TestRowStreamHandsOutPrivateRows(t *testing.T) {
	fed := func() *Query {
		q, feed := NewQueryHandle(1, "fed", 0)
		feed.SetColumns("id", "name")
		feed.Push(sqlengine.Row{int64(1), "a"}, sqlengine.Row{int64(2), nil})
		feed.Push(sqlengine.Row{int64(3), "c"})
		feed.Finish(&sqlengine.Result{Cols: []string{"id", "name"}}, nil)
		return q
	}
	q := fed()
	first, second := q.Rows(), q.Rows()
	if _, ok := second.Next(); ok || !errors.Is(second.Err(), ErrRowsTaken) || !second.Ready() {
		t.Errorf("a second Rows: ok %v, err %v", ok, second.Err())
	}
	row, ok := first.Next()
	if !ok || row[0] != int64(1) || row[1] != "a" {
		t.Fatalf("first row = %v, %v", row, ok)
	}
	row[0], row[1] = "scribbled", "over"
	rest, ok := first.NextBatch()
	if want, _ := rowcodec.AppendRow(nil, sqlengine.Row{int64(2), nil}); !ok || rest.Len() != 1 || string(rest.Row(0)) != string(want) {
		t.Errorf("the rest of the first batch = %d rows %x, %v; want the second row, %x", rest.Len(), rest.Data, ok, want)
	}
	if !first.Ready() {
		t.Error("a finished stream is not Ready")
	}
	if b, ok := first.NextBatch(); !ok || b.Len() != 1 || len(q.stream.queue) != 0 || q.stream.bytes != 0 {
		t.Errorf("the last batch: %d rows, %v; the stream still holds %d batches, %d bytes", b.Len(), ok, len(q.stream.queue), q.stream.bytes)
	}
	if _, ok := first.Next(); ok || first.Err() != nil {
		t.Errorf("after the last row: ok %v, err %v", ok, first.Err())
	}
	if res, err := q.Wait(context.Background()); err != nil || res.Rows != nil {
		t.Errorf("Wait after Rows: %d rows, %v", len(res.Rows), err)
	}

	waited := fed()
	res, err := waited.Wait(context.Background())
	if err != nil || len(res.Rows) != 3 || res.Rows[2][1] != "c" {
		t.Fatalf("Wait with no Rows: %v, %v", res, err)
	}
	if again, err := waited.Wait(context.Background()); err != nil || len(again.Rows) != 3 || &again.Rows[0] != &res.Rows[0] {
		t.Errorf("a second Wait: %v, %v; want the first's rows", again, err)
	}
	if it := waited.Rows(); !errors.Is(it.Err(), ErrRowsTaken) {
		t.Errorf("Rows after Wait: err %v", it.Err())
	}

	// A fed session may finish with no result at all.
	none, noneFeed := NewQueryHandle(3, "fed", 0)
	noneFeed.Finish(nil, nil)
	if res, err := none.Wait(context.Background()); err != nil || res == nil || res.Result != nil {
		t.Errorf("a session finished without a result: Wait returns %+v, %v", res, err)
	}

	// A value the codec has no encoding for fails the session where it
	// enters the stream.
	bad, badFeed := NewQueryHandle(2, "fed", 0)
	badFeed.Push(sqlengine.Row{struct{}{}})
	badFeed.Finish(&sqlengine.Result{}, nil)
	if _, err := bad.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "unsupported value type") {
		t.Errorf("pushing a value with no encoding: Wait returns %v", err)
	}
}
