package worker

import (
	"fmt"
	"math/rand"
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
// payload for it split into its header and its statement pairs.
type reuseFixture struct {
	w      *Worker
	reg    *telemetry.Registry
	chunk  partition.ChunkID
	header string   // the two header lines
	pairs  []string // a subchunk's two statements, each closed by ";\n"
}

func newReuseFixture(tb testing.TB) *reuseFixture {
	tb.Helper()
	cfg := DefaultConfig("w-reuse")
	cfg.Metrics = telemetry.NewRegistry()
	w, chunk, payload := nearNeighbourFixtureOf(tb, cfg, 500, 0.3)
	lines := strings.SplitAfter(string(payload), "\n")
	f := &reuseFixture{w: w, reg: cfg.Metrics, chunk: chunk, header: lines[0] + lines[1]}
	for i := 2; i+1 < len(lines); i += 2 {
		f.pairs = append(f.pairs, lines[i]+lines[i+1])
	}
	return f
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

// TestReusedStatementNeverDiffers: a job that runs its repeating statements
// through one compiled pair answers exactly as a job that parses every
// statement — for the payload the czar renders and for payloads one token
// away from it, where reuse must not be taken — and the worker's counters
// say which path each statement took.
func TestReusedStatementNeverDiffers(t *testing.T) {
	f := newReuseFixture(t)
	if len(f.pairs) < 8 {
		t.Fatalf("the fixture's payload has %d pairs", len(f.pairs))
	}
	n := int64(len(f.pairs))
	chunkSub := func(k int) string { // _<chunk>_<sub> of pair k
		name := f.pairs[k][strings.Index(f.pairs[k], "`Object_")+len("`Object") : strings.Index(f.pairs[k], "` AS o1")]
		return name
	}
	edit := func(k int, old, new string, count int) []string {
		if !strings.Contains(f.pairs[k], old) {
			t.Fatalf("pair %d does not contain %q: %s", k, old, f.pairs[k])
		}
		out := append([]string(nil), f.pairs...)
		out[k] = strings.Replace(out[k], old, new, count)
		return out
	}
	stmts := func(k int) (string, string) {
		a, b, _ := strings.Cut(f.pairs[k], "\n")
		return a + "\n", b
	}
	self3, overlap3 := stmts(3)
	firstTables := strings.NewReplacer("o1, LSST.", "o1;\nSELECT COUNT(*) FROM LSST.").Replace(
		f.pairs[0][strings.Index(f.pairs[0], "LSST."):strings.Index(f.pairs[0], " WHERE")])
	for _, tc := range []struct {
		name           string
		header         string
		pairs          []string
		parsed, reused int64 // -1: the job fails
	}{
		{"as rendered", f.header, f.pairs, 2, 2 * (n - 1)},
		{"one pair", f.header, f.pairs[:1], 0, 2}, // the template is in the cache by now
		{"pairs in another order", f.header, append(append([]string(nil), f.pairs[5:]...), f.pairs[:5]...), 0, 2 * n},
		{"another radius in pair 3", f.header, edit(3, "< 0.3", "< 0.25", -1), 2, 2 * (n - 1)},
		{"another radius in one statement", f.header, edit(3, "< 0.3", "< 0.25", 1), 2, 2 * (n - 1)},
		{"another radius in pair 0", f.header, edit(0, "< 0.3", "< 0.1", -1), 2 * n, 0},
		{"an extra conjunct", f.header, edit(4, "< 0.3))", "< 0.3) AND o1.objectId != o2.objectId)", -1), 2, 2 * (n - 1)},
		{"a <= for a <", f.header, edit(2, "< 0.3", "<= 0.3", -1), 2, 2 * (n - 1)},
		{"a literal holding the ids, the same in every pair", f.header, func() []string {
			out := make([]string, len(f.pairs))
			for k := range out {
				out[k] = strings.ReplaceAll(f.pairs[k], "< 0.3))", "< 0.3) AND 'x"+chunkSub(0)+"' = 'x"+chunkSub(0)+"')")
			}
			return out
		}(), 2, 2 * (n - 1)},
		{"a literal holding each pair's own ids", f.header, func() []string {
			out := make([]string, len(f.pairs))
			for k := range out {
				out[k] = strings.ReplaceAll(f.pairs[k], "< 0.3))", "< 0.3) AND 'x"+chunkSub(k)+"' = 'x"+chunkSub(0)+"')")
			}
			return out
		}(), 2 * (n - 1), 2}, // pair 0 is the case before's
		{"a pair's statements swapped", f.header, append(append(append([]string(nil), f.pairs[:3]...), overlap3+self3), f.pairs[4:]...), 2, 2 * (n - 1)},
		{"a statement dropped", f.header, append(append(append([]string(nil), f.pairs[:3]...), self3), f.pairs[4:]...), 1, 2 * (n - 1)},
		{"another case", f.header, edit(3, "`Object_", "`object_", -1), 2, 2 * (n - 1)},
		{"an implicit alias", f.header, edit(3, "` AS o1", "` o1", -1), 2, 2 * (n - 1)},
		{"unquoted names", f.header, edit(3, "`", "", -1), 2, 2 * (n - 1)},
		{"a comment and blank space between pairs", f.header, edit(2, ";\n", "; -- the self pairs\n\n  ", 1), 2, 2 * (n - 1)},
		{"a comment between pairs", f.header, edit(2, "SELECT", "/* next */ SELECT", 1), 0, 2 * n},
		{"no semicolon at the end", f.header, append(append([]string(nil), f.pairs[:n-1]...), strings.TrimSuffix(f.pairs[n-1], ";\n")), 2, 2 * (n - 1)},
		{"the build-only script of bench/replay.go", f.header, []string{"SELECT COUNT(*) FROM " + firstTables + ";\n"}, 2, 0},
		{"a subchunk the header does not list", f.header[:strings.LastIndex(f.header, ",")] + "\n", f.pairs, -1, -1},
		{"a subchunk of another chunk", f.header, edit(3, fmt.Sprintf("_%d_", f.chunk), fmt.Sprintf("_%d_", f.chunk+1), -1), -1, -1},
		{"a syntax error in pair 6", f.header, edit(6, "WHERE", "WHERE WHERE", 1), -1, -1},
		{"an unterminated string in pair 6", f.header, edit(6, "< 0.3", "< '0.3", 1), -1, -1},
		{"a statement that is no SELECT first", f.header, append([]string{"DROP TABLE IF EXISTS nothing_here;\n"}, f.pairs...), 2*n + 1, 0},
		{"no SUBCHUNKS header", f.header[:strings.Index(f.header, "\n")+1], f.pairs[:2], -1, -1},
	} {
		payload := tc.header + strings.Join(tc.pairs, "")
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
		// Whatever the payload did to the cached template, the rendered
		// payload still answers as it does.
		if got, want := f.answer(f.header+strings.Join(f.pairs, "")), f.answer(fresh(f.header+strings.Join(f.pairs, ""))); got != want {
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

// TestTemplateMatchIsExact: match accepts the template's text with its
// table names rewritten, and nothing else.
func TestTemplateMatchIsExact(t *testing.T) {
	f := newReuseFixture(t)
	tmpl := f.w.templates.take(templateKey(f.pairs[0], f.chunk))
	if tmpl != nil {
		t.Fatal("a template before any job ran")
	}
	f.answer(f.header + strings.Join(f.pairs, ""))
	if tmpl = f.w.templates.take(templateKey(f.pairs[0], f.chunk)); tmpl == nil {
		t.Fatal("no template after a job ran")
	}
	subs, _ := core.ParseSubChunksHeader([]byte(f.header))
	for k, pair := range f.pairs {
		pair = strings.TrimSuffix(pair, "\n")
		n, sub, ok := tmpl.match(pair+"\nSELECT 1;", f.chunk)
		if !ok || n != len(pair) || sub != subs[k] {
			t.Errorf("pair %d: match = %d, %d, %v; want %d, %d, true", k, n, sub, ok, len(pair), subs[k])
		}
		// Any one byte changed, dropped or doubled is another text.
		r := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 40; i++ {
			at := r.Intn(len(pair))
			for _, mutant := range []string{pair[:at] + pair[at+1:], pair[:at] + pair[at:at+1] + pair[at:], pair[:at] + "~" + pair[at+1:]} {
				n, sub, ok := tmpl.match(mutant, f.chunk)
				if !ok || (n == len(pair) && strings.HasPrefix(mutant, pair)) {
					continue // the closing ';' doubled: the pair, and a separator
				}
				// A subchunk id is written four times in a pair: no one edit
				// makes another pair of it.
				t.Errorf("pair %d with byte %d edited still matches (%d bytes, subchunk %d):\n%s", k, at, n, sub, mutant)
			}
		}
		if _, _, ok := tmpl.match(pair, f.chunk+1); ok {
			t.Errorf("pair %d matches for another chunk", k)
		}
	}
	// For another chunk the names are rewritten, and only they.
	other := strings.ReplaceAll(f.pairs[2], fmt.Sprintf("_%d_", f.chunk), fmt.Sprintf("_%d_", f.chunk+1000))
	if n, _, ok := tmpl.match(other, f.chunk+1000); !ok || n != len(other)-1 {
		t.Errorf("the pair rewritten for another chunk: match = %d, %v", n, ok)
	}
	f.w.templates.put(tmpl)
}
