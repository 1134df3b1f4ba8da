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
	_, subs, body, err := core.ParseHeader(payload)
	if err != nil {
		tb.Fatal(err)
	}
	class, _, _ := strings.Cut(string(payload), "\n")
	return &reuseFixture{w: w, reg: cfg.Metrics, chunk: chunk, subs: subs, class: class + "\n", pair: string(payload[body:])}
}

// header is the payload's header listing subs.
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

// answer runs a payload and returns what a client can tell of the outcome:
// the decoded result, or that it failed.
func (f *reuseFixture) answer(payload string) string {
	data := []byte(payload)
	if err := f.w.HandleWrite(xrd.QueryPath(int(f.chunk)), data); err != nil {
		return "write: " + err.Error()
	}
	out, err := f.w.HandleRead(xrd.ResultPath(data))
	if err != nil {
		return "failed"
	}
	dec, err := dump.Decode(string(out))
	if err != nil {
		return "undecodable: " + err.Error()
	}
	return fmt.Sprintf("%v %v", dec.Schema, dec.Rows)
}

// fresh is payload as a job that parses every statement runs it: the
// interactive class never goes through a template.
func fresh(payload string) string {
	return strings.Replace(payload, "-- CLASS: FULLSCAN", "-- CLASS: INTERACTIVE", 1)
}

// TestReusedStatementNeverDiffers: a job that runs its statements through a
// template answers exactly as a job that parses them — for the payload the
// czar renders and for payloads beside it, where the template must not be
// taken — and the worker's counters say which path each job took.
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
	reversed := slices.Clone(f.subs)
	slices.Reverse(reversed)
	header := f.header(f.subs)
	for _, tc := range []struct {
		name           string
		header, body   string
		parsed, reused int64 // -1: the job fails
	}{
		{"as rendered", header, f.pair, 2, 0},
		{"as rendered, again", header, f.pair, 0, 2},
		{"one subchunk", f.header(f.subs[:1]), f.pair, 0, 2},
		{"the subchunks in another order", f.header(reversed), f.pair, 2, 0},
		{"an edited literal", header, edit("< 0.3", "< 0.25", -1), 2, 0},
		{"an edited literal in one statement", header, edit("< 0.3", "< 0.25", 1), 2, 0},
		{"the pair swapped", header, overlapStmt + selfStmt + "\n", 2, 0},
		{"the swapped pair again", header, overlapStmt + selfStmt + "\n", 0, 2},
		{"a hand-written pair naming a subchunk other than the first", header,
			strings.ReplaceAll(f.pair, fmt.Sprintf("_%d_%d ", f.chunk, s0), fmt.Sprintf("_%d_%d ", f.chunk, s3)), 2, 0},
		{"an un-aliased subchunk table", header, "SELECT COUNT(*), SUM(ra_PS) FROM LSST." + self + " WHERE decl_PS > 7;\n", 1, 0},
		{"the un-aliased subchunk table again", header, "SELECT COUNT(*), SUM(ra_PS) FROM LSST." + self + " WHERE decl_PS > 7;\n", 0, 1},
		// Renamed, the table is no longer what the column names it by.
		{"an un-aliased subchunk table a column is qualified by", header, "SELECT COUNT(*) FROM LSST." + self + " WHERE " + self + ".decl_PS > 7;\n", -1, -1},
		{"another case", header, edit("LSST.Object_", "LSST.object_", -1), 2, 0},
		{"an implicit alias", header, edit(" AS o1", " o1", -1), 2, 0},
		{"quoted names", header, strings.NewReplacer(self, "`"+self+"`", overlap, "`"+overlap+"`").Replace(f.pair), 2, 0},
		{"a literal holding the names", header, edit("< 0.3)", "< 0.3) AND '"+self+"' != 'LSST."+overlap+"'", -1), 2, 0},
		{"a comment and blank space between the statements", header, edit(";\n", "; -- the self pairs\n\n  ", 1), 2, 0},
		{"no semicolon at the end", header, strings.TrimSuffix(f.pair, ";\n"), 2, 0},
		{"the build-only script of bench/replay.go", header, "SELECT COUNT(*) FROM LSST." + self + " AS o1;\nSELECT COUNT(*) FROM LSST." + overlap + " AS o2;\n", 2, 0},
		{"a first subchunk the pair does not name", f.header(f.subs[1:]), f.pair, -1, -1},
		{"a subchunk of another chunk", header, edit(fmt.Sprintf("_%d_", f.chunk), fmt.Sprintf("_%d_", f.chunk+1), -1), -1, -1},
		{"a syntax error", header, edit("WHERE", "WHERE WHERE", 1), -1, -1},
		{"an unterminated string", header, edit("< 0.3", "< '0.3", 1), -1, -1},
		{"a statement that is no SELECT first", header, "DROP TABLE IF EXISTS nothing_here;\n" + f.pair, 3, 0},
		{"no SUBCHUNKS header", f.class, f.pair, -1, -1},
	} {
		payload := tc.header + tc.body
		want := f.answer(fresh(payload))
		p0, r0 := f.counters()
		got := f.answer(payload)
		p1, r1 := f.counters()
		if got != want {
			t.Errorf("%s: the job answers\n%s\na job that parses every statement\n%s", tc.name, got, want)
		}
		if tc.parsed >= 0 && (p1-p0 != tc.parsed || r1-r0 != tc.reused) {
			t.Errorf("%s: %d statements parsed and %d reused, want %d and %d", tc.name, p1-p0, r1-r0, tc.parsed, tc.reused)
		}
		if (want == "failed") != (tc.parsed < 0) {
			t.Errorf("%s: the reference job's outcome is %q", tc.name, want)
		}
		// Whatever the payload did to the cache, the rendered payload still
		// answers as it does.
		if got, want := f.answer(header+f.pair), f.answer(fresh(header+f.pair)); got != want {
			t.Fatalf("after %q the rendered payload answers\n%s\nnot\n%s", tc.name, got, want)
		}
	}
}

// TestStatementReuseAcrossChunkJobs: the jobs of one full-sky query share a
// parse and a compile across chunks through the worker's cache, answer as
// jobs that parse do, and may run at the same time.
func TestStatementReuseAcrossChunkJobs(t *testing.T) {
	cfg := DefaultConfig("w-reuse")
	cfg.Metrics = telemetry.NewRegistry()
	w, chunks := loadBigChunks(t, cfg, 5, 300)
	f := &reuseFixture{w: w, reg: cfg.Metrics}
	statement := func(chunk partition.ChunkID, cut float64) string {
		return fmt.Sprintf("-- CLASS: FULLSCAN\nSELECT COUNT(*) AS qserv_c0, SUM(zFlux_PS) AS qserv_c1, chunkId AS qserv_c2 FROM LSST.%s AS Object WHERE (zFlux_PS > %v) GROUP BY chunkId;\n",
			meta.ChunkTableName("Object", chunk), cut)
	}
	for i, chunk := range chunks {
		f.chunk = chunk
		want := f.answer(fresh(statement(chunk, 3e-29)))
		p0, r0 := f.counters()
		got := f.answer(statement(chunk, 3e-29))
		p1, r1 := f.counters()
		if got != want {
			t.Errorf("chunk %d answers %s, a job that parses %s", chunk, got, want)
		}
		if wantParsed := int64(0); i == 0 {
			wantParsed = 1
			if p1-p0 != wantParsed || r1-r0 != 0 {
				t.Errorf("the first job parsed %d statements and reused %d, want 1 and 0", p1-p0, r1-r0)
			}
		} else if p1-p0 != 0 || r1-r0 != 1 {
			t.Errorf("chunk %d: %d statements parsed and %d reused, want 0 and 1", chunk, p1-p0, r1-r0)
		}
	}
	// Another cut is another statement: parsed once, then reused.
	f.chunk = chunks[0]
	if got, want := f.answer(statement(chunks[0], 5e-29)), f.answer(fresh(statement(chunks[0], 5e-29))); got != want {
		t.Errorf("another cut answers %s, a job that parses %s", got, want)
	}

	// Concurrent jobs over every chunk, two statements interleaved.
	want := map[string]string{}
	for _, chunk := range chunks {
		for _, cut := range []float64{3e-29, 5e-29} {
			f.chunk = chunk
			want[statement(chunk, cut)] = f.answer(fresh(statement(chunk, cut)))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				chunk := chunks[r.Intn(len(chunks))]
				// A comment of its own makes each payload a job of its own.
				payload := statement(chunk, []float64{3e-29, 5e-29}[r.Intn(2)])
				own := payload + fmt.Sprintf("-- %d/%d\n", g, i)
				fx := &reuseFixture{w: w, chunk: chunk}
				if got := fx.answer(own); got != want[payload] {
					t.Errorf("goroutine %d job %d on chunk %d answers %s, want %s", g, i, chunk, got, want[payload])
				}
			}
		}(g)
	}
	wg.Wait()
	if held := w.HeldJobs(); held != 0 {
		t.Errorf("%d jobs held after every result was read", held)
	}
	if n := len(w.templates.entries); n == 0 || n > templateCacheSize {
		t.Errorf("the template cache holds %d entries (bound %d)", n, templateCacheSize)
	}
}

// TestTemplateMatchIsExact: a template is taken for its own text rendered
// for another chunk and first subchunk, and for no text one byte away from
// that.
func TestTemplateMatchIsExact(t *testing.T) {
	f := newReuseFixture(t)
	s0 := f.subs[0]
	if tmpl := f.w.templates.take(f.pair, f.chunk, s0); tmpl != nil {
		t.Fatal("a template before any job ran")
	}
	f.answer(f.header(f.subs) + f.pair)
	tmpl := f.w.templates.take(f.pair, f.chunk, s0)
	if tmpl == nil {
		t.Fatal("no template after a job ran")
	}
	if got := tmpl.unit.Render(f.chunk, s0); got != f.pair {
		t.Fatalf("the template renders\n%s\nnot the text it was made of\n%s", got, f.pair)
	}
	f.w.templates.put(tmpl)
	take := func(text string, chunk partition.ChunkID, sub partition.SubChunkID) bool {
		tmpl := f.w.templates.take(text, chunk, sub)
		if tmpl != nil {
			f.w.templates.put(tmpl)
		}
		return tmpl != nil
	}
	// Any one byte changed, dropped or doubled is another text.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		at := r.Intn(len(f.pair))
		for _, mutant := range []string{f.pair[:at] + f.pair[at+1:], f.pair[:at] + f.pair[at:at+1] + f.pair[at:], f.pair[:at] + "~" + f.pair[at+1:]} {
			if take(mutant, f.chunk, s0) {
				t.Errorf("the pair with byte %d edited is taken:\n%s", at, mutant)
			}
		}
	}
	// The names are rewritten for another chunk and subchunk, and only they.
	other := strings.ReplaceAll(f.pair, fmt.Sprintf("_%d_%d ", f.chunk, s0), fmt.Sprintf("_%d_%d ", f.chunk+1000, s0+7))
	if !take(other, f.chunk+1000, s0+7) {
		t.Errorf("the pair rewritten for another chunk and subchunk is not taken:\n%s", other)
	}
	if take(f.pair, f.chunk+1, s0) || take(f.pair, f.chunk, s0+1) || take(other, f.chunk+1000, s0) {
		t.Error("a text is taken for a chunk or subchunk it does not name")
	}
}
