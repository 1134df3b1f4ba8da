package worker

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/xrd"
)

// reuseFixture is a worker with the statement counters on, holding the
// near-neighbour fixture's chunk at a tenth of its rows, and the SHV1
// payload for it split into its header and its statement pair.
type reuseFixture struct {
	w     *Worker
	reg   *telemetry.Registry
	chunk partition.ChunkID
	subs  []partition.SubChunkID // the subchunks the header lists
	class string                 // the CLASS header line
	pair  string                 // the two statements, each closed by ";\n"
}

func newReuseFixture(tb testing.TB) *reuseFixture {
	tb.Helper()
	cfg := DefaultConfig("w-reuse")
	cfg.Metrics = telemetry.NewRegistry()
	w, chunk, payload := nearNeighbourFixtureOf(tb, cfg, 500, 0.3)
	h, err := core.ParseHeader(payload)
	if err != nil {
		tb.Fatal(err)
	}
	class, _, _ := strings.Cut(string(payload), "\n")
	return &reuseFixture{w: w, reg: cfg.Metrics, chunk: chunk, subs: h.SubChunks, class: class + "\n", pair: string(payload[h.Body:])}
}

// header is the one-chunk payload's header listing subs.
func (f *reuseFixture) header(subs []partition.SubChunkID) string {
	h := f.class + "-- SUBCHUNKS:"
	for i, s := range subs {
		if i > 0 {
			h += ","
		}
		h += fmt.Sprintf(" %d", s)
	}
	return h + "\n"
}

// counters returns the statements parsed and reused so far.
func (f *reuseFixture) counters() (parsed, reused int64) {
	parsed, _ = f.reg.Value("qserv_worker_statements_parsed_total", "worker", "w-reuse")
	reused, _ = f.reg.Value("qserv_worker_statements_reused_total", "worker", "w-reuse")
	return parsed, reused
}

// answer runs a one-chunk payload and returns what a client can tell of the
// outcome: the decoded result, or that it failed.
func (f *reuseFixture) answer(payload string) string {
	data := []byte(payload)
	if err := f.w.HandleWrite(xrd.QueryPath(int(f.chunk)), data); err != nil {
		return "write: " + err.Error()
	}
	return f.read(xrd.ResultHash(data))
}

func (f *reuseFixture) read(hash string) string {
	out, err := f.w.HandleRead(xrd.ResultPathOf(hash))
	if err != nil {
		return "failed"
	}
	dec, err := dump.Decode(string(out))
	if err != nil {
		return "undecodable: " + err.Error()
	}
	return fmt.Sprintf("%v %v", dec.Schema, dec.Rows)
}

// answerTxn writes body as one dispatch listing the fixture's chunk once
// per subchunk list, each under a hash of its own, and returns what each
// listed chunk answers, in list order.
func (f *reuseFixture) answerTxn(body string, lists ...[]partition.SubChunkID) []string {
	d := core.Dispatch{Class: core.FullScan}
	for i, subs := range lists {
		d.Chunks = append(d.Chunks, core.DispatchChunk{Chunk: f.chunk, Hash: xrd.ResultHash([]byte(fmt.Sprint(body, i, subs))), SubChunks: subs})
	}
	out := make([]string, len(lists))
	if err := f.w.HandleWrite(xrd.QueryPath(int(f.chunk)), append(d.Payload(), body...)); err != nil {
		for i := range out {
			out[i] = "write: " + err.Error()
		}
		return out
	}
	for i, c := range d.Chunks {
		out[i] = f.read(c.Hash)
	}
	return out
}

// rebind is body as the czar writes it for first subchunk sub instead of s0:
// every FROM entry spelled as the name of the fixture chunk's subchunk or
// overlap-subchunk table of s0 names sub's instead. It renames on a fresh
// parse, apart from the worker's binder, and deparses; a body that does not
// parse or names no such table comes back as it is.
func (f *reuseFixture) rebind(body string, s0, sub partition.SubChunkID) string {
	stmts, err := sqlparse.ParseScript(body)
	if err != nil {
		return body
	}
	renamed := map[string]string{
		meta.SubChunkTableName("Object", f.chunk, s0):        meta.SubChunkTableName("Object", f.chunk, sub),
		meta.SubChunkOverlapTableName("Object", f.chunk, s0): meta.SubChunkOverlapTableName("Object", f.chunk, sub),
	}
	changed := false
	var sb strings.Builder
	for _, st := range stmts {
		sel, ok := st.(*sqlparse.Select)
		if !ok {
			return body
		}
		for i := range sel.From {
			if to, ok := renamed[sel.From[i].Table]; ok {
				sel.From[i].Table, changed = to, true
			}
		}
		sb.WriteString(sel.SQL())
		sb.WriteString(";\n")
	}
	if !changed {
		return body
	}
	return sb.String()
}

// other is a subchunk list whose first subchunk is not subs's.
func (f *reuseFixture) other(subs []partition.SubChunkID) []partition.SubChunkID {
	if len(subs) > 1 {
		out := slices.Clone(subs)
		slices.Reverse(out)
		return out
	}
	for _, s := range f.subs {
		if len(subs) == 0 || s != subs[0] {
			return []partition.SubChunkID{s}
		}
	}
	return subs
}

// checkTxn writes body as a dispatch listing the fixture's chunk for subs
// and then for another first subchunk, and holds each listed chunk to what
// its own one-chunk payload answers: body for subs, body rebound for the
// other list. It returns the first listed chunk's answer.
func (f *reuseFixture) checkTxn(t *testing.T, name string, subs []partition.SubChunkID, body string) string {
	t.Helper()
	second := f.other(subs)
	got := f.answerTxn(body, subs, second)
	want := []string{f.answer(f.header(subs) + body), f.answer(f.header(second) + f.rebind(body, firstSub(subs), firstSub(second)))}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: listed chunk %d answers\n%s\nits own one-chunk payload\n%s\nbody:\n%s", name, i, got[i], want[i], body)
		}
	}
	return want[0]
}

// TestReusedStatementNeverDiffers: a dispatch's statements are parsed once
// and every listed chunk after the first runs them bound to its own first
// subchunk without a parse — and each answers exactly as its own one-chunk
// payload does, for the payload the czar renders and for payloads beside
// it, where a name that is not spelled as the first chunk's piece stays as
// it is written; the worker's counters say which path each job took.
func TestReusedStatementNeverDiffers(t *testing.T) {
	f := newReuseFixture(t)
	if len(f.subs) < 8 {
		t.Fatalf("the fixture's payload lists %d subchunks", len(f.subs))
	}
	s0, s3 := f.subs[0], f.subs[3]
	self := meta.SubChunkTableName("Object", f.chunk, s0)
	overlap := meta.SubChunkOverlapTableName("Object", f.chunk, s0)
	edit := func(old, new string, count int) string {
		if !strings.Contains(f.pair, old) {
			t.Fatalf("the pair does not contain %q: %s", old, f.pair)
		}
		return strings.Replace(f.pair, old, new, count)
	}
	selfStmt, overlapStmt, _ := strings.Cut(f.pair, "\n")
	for _, tc := range []struct {
		name  string
		subs  []partition.SubChunkID
		body  string
		stmts int64 // -1: the jobs fail
	}{
		{"as rendered", f.subs, f.pair, 2},
		{"one subchunk", f.subs[:1], f.pair, 2},
		{"an edited literal", f.subs, edit("< 0.3", "< 0.25", -1), 2},
		{"an edited literal in one statement", f.subs, edit("< 0.3", "< 0.25", 1), 2},
		{"the pair swapped", f.subs, overlapStmt + selfStmt + "\n", 2},
		{"a hand-written pair naming a subchunk other than the first", f.subs,
			strings.ReplaceAll(f.pair, fmt.Sprintf("_%d_%d ", f.chunk, s0), fmt.Sprintf("_%d_%d ", f.chunk, s3)), 2},
		{"an un-aliased subchunk table", f.subs, "SELECT COUNT(*), SUM(ra_PS) FROM LSST." + self + " WHERE decl_PS > 7;\n", 1},
		// Renamed, the table is no longer what the column names it by.
		{"an un-aliased subchunk table a column is qualified by", f.subs, "SELECT COUNT(*) FROM LSST." + self + " WHERE " + self + ".decl_PS > 7;\n", -1},
		{"another case", f.subs, edit("LSST.Object_", "LSST.object_", -1), 2},
		{"an implicit alias", f.subs, edit(" AS o1", " o1", -1), 2},
		{"quoted names", f.subs, strings.NewReplacer(self, "`"+self+"`", overlap, "`"+overlap+"`").Replace(f.pair), 2},
		{"a literal holding the names", f.subs, edit("< 0.3)", "< 0.3) AND '"+self+"' != 'LSST."+overlap+"'", -1), 2},
		{"a comment and blank space between the statements", f.subs, edit(";\n", "; -- the self pairs\n\n  ", 1), 2},
		{"no semicolon at the end", f.subs, strings.TrimSuffix(f.pair, ";\n"), 2},
		{"the build-only script of bench/replay.go", f.subs, "SELECT COUNT(*) FROM LSST." + self + " AS o1;\nSELECT COUNT(*) FROM LSST." + overlap + " AS o2;\n", 2},
		{"a first subchunk the pair does not name", f.subs[1:], f.pair, -1},
		{"a subchunk of another chunk", f.subs, edit(fmt.Sprintf("_%d_", f.chunk), fmt.Sprintf("_%d_", f.chunk+1), -1), -1},
		{"a syntax error", f.subs, edit("WHERE", "WHERE WHERE", 1), -1},
		{"an unterminated string", f.subs, edit("< 0.3", "< '0.3", 1), -1},
		{"a statement that writes first", f.subs, "DROP TABLE IF EXISTS nothing_here;\n" + f.pair, -1},
		{"a statement that writes last", f.subs, f.pair + "INSERT INTO " + self + " VALUES (1);\n", -1},
		{"no SUBCHUNKS header", nil, f.pair, -1},
	} {
		p0, r0 := f.counters()
		got := f.answerTxn(tc.body, tc.subs, f.other(tc.subs))
		p1, r1 := f.counters()
		f.checkTxn(t, tc.name, tc.subs, tc.body)
		if tc.stmts >= 0 && (p1-p0 != tc.stmts || r1-r0 != tc.stmts) {
			t.Errorf("%s: %d statements parsed and %d reused, want %d of each", tc.name, p1-p0, r1-r0, tc.stmts)
		}
		if (got[0] == "failed") != (tc.stmts < 0) {
			t.Errorf("%s: the first listed chunk's outcome is %q", tc.name, got[0])
		}
	}
}

// TestStatementReuseAcrossChunkJobs: the jobs of one full-sky dispatch share
// a parse across chunks, answer as their one-chunk payloads do, and may run
// at the same time, each compiling a copy from the one parse; many
// dispatches at once leave nothing held once every result is read.
func TestStatementReuseAcrossChunkJobs(t *testing.T) {
	cfg := DefaultConfig("w-reuse")
	cfg.Metrics = telemetry.NewRegistry()
	w, chunks := loadBigChunks(t, cfg, 5, 300)
	f := &reuseFixture{w: w, reg: cfg.Metrics}
	statement := func(chunk partition.ChunkID, cut float64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS qserv_c0, SUM(zFlux_PS) AS qserv_c1, chunkId AS qserv_c2 FROM LSST.%s AS Object WHERE (zFlux_PS > %v) GROUP BY chunkId;\n",
			meta.ChunkTableName("Object", chunk), cut)
	}
	want := map[string]string{}
	for _, chunk := range chunks {
		for _, cut := range []float64{3e-29, 5e-29} {
			f.chunk = chunk
			want[fmt.Sprint(chunk, cut)] = f.answer("-- CLASS: FULLSCAN\n" + statement(chunk, cut))
		}
	}
	// dispatch writes the statement cut for the listed chunks, the first's
	// names in it, and checks every answer.
	dispatch := func(t *testing.T, listed []partition.ChunkID, cut float64, tag string) {
		d := core.Dispatch{Class: core.FullScan, Statements: []string{strings.TrimSuffix(statement(listed[0], cut), ";\n") + " -- " + tag}}
		for _, c := range listed {
			d.Chunks = append(d.Chunks, core.DispatchChunk{Chunk: c, Hash: xrd.ResultHash([]byte(fmt.Sprint(tag, c)))})
		}
		if err := w.HandleWrite(xrd.QueryPath(int(listed[0])), d.Payload()); err != nil {
			t.Error(err)
			return
		}
		for _, c := range d.Chunks {
			if got := f.read(c.Hash); got != want[fmt.Sprint(c.Chunk, cut)] {
				t.Errorf("%s: chunk %d answers %s, its one-chunk payload %s", tag, c.Chunk, got, want[fmt.Sprint(c.Chunk, cut)])
			}
		}
	}
	p0, r0 := f.counters()
	dispatch(t, chunks, 3e-29, "one")
	if p1, r1 := f.counters(); p1-p0 != 1 || r1-r0 != int64(len(chunks)-1) {
		t.Errorf("a dispatch of %d chunks parsed %d statements and reused %d, want 1 and %d", len(chunks), p1-p0, r1-r0, len(chunks)-1)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 10; i++ {
				listed := slices.Clone(chunks)
				r.Shuffle(len(listed), func(a, b int) { listed[a], listed[b] = listed[b], listed[a] })
				dispatch(t, listed[:1+r.Intn(len(listed))], []float64{3e-29, 5e-29}[r.Intn(2)], fmt.Sprintf("%d/%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	if held := w.HeldJobs(); held != 0 {
		t.Errorf("%d jobs held after every result was read", held)
	}
}

// TestBinderCutsOnlyTheFirstChunksNames: a dispatch's statements are cut at
// a FROM entry exactly when it names a piece of the first listed chunk — of
// its first subchunk, for the subchunk kinds — spelled as the codec spells
// it; nothing else a statement says is a hole.
func TestBinderCutsOnlyTheFirstChunksNames(t *testing.T) {
	f := newReuseFixture(t)
	s0 := f.subs[0]
	self := meta.SubChunkTableName("Object", f.chunk, s0)
	for _, tc := range []struct {
		from  string
		holes int
	}{
		{"LSST." + self + " AS o1, LSST." + meta.SubChunkOverlapTableName("Object", f.chunk, s0) + " AS o2", 2},
		{"LSST.`" + self + "` AS o1", 1},
		{"LSST." + meta.ChunkTableName("Object", f.chunk) + " AS o1, LSST." + meta.OverlapTableName("Object", f.chunk) + " AS o2", 2},
		{"LSST." + strings.ToLower(self) + " AS o1", 0},
		{"LSST." + meta.SubChunkTableName("Object", f.chunk, f.subs[1]) + " AS o1", 0},
		{"LSST." + meta.SubChunkTableName("Object", f.chunk+1, s0) + " AS o1", 0},
		{"LSST." + meta.ChunkTableName("Object", f.chunk+1) + " AS o1", 0},
		{"LSST.Object AS o1", 0},
		{"LSST.Filter AS f", 0},
		{"LSST." + self + "_ AS o1", 0},
	} {
		tx := &txn{text: "SELECT '" + self + "' AS x FROM " + tc.from, first: core.DispatchChunk{Chunk: f.chunk, SubChunks: f.subs}}
		tx.parseText(f.w.registry)
		if tx.err != nil {
			t.Fatalf("%s: %v", tc.from, tx.err)
		}
		holes := 0
		for _, e := range tx.ents[0] {
			if e.hole {
				holes++
			}
		}
		if holes != tc.holes {
			t.Errorf("FROM %s: %d holes, want %d", tc.from, holes, tc.holes)
		}
		j := &job{chunk: f.chunk + 1000, subs: []partition.SubChunkID{s0 + 7}}
		stmts, _, _ := tx.statements(f.w.registry, j)
		for k, e := range stmts[0].ents {
			if orig := tx.sels[0].From[k].Table; e.hole != (e.name != orig) {
				t.Errorf("FROM %s: entry %s is bound as %s (a hole: %v)", tc.from, orig, e.name, e.hole)
			}
		}
	}
}
