package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{96, 96, 151, 151, 151}); got != 151 {
		t.Errorf("median = %v, want 151", got)
	}
}

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{15, 0, false},  // p75 is sample 12 of 15: three beyond
		{39, 0, false},  // p75 is sample 30 of 39: nine beyond
		{40, 75, true},  // p75 is sample 30 of 40: ten beyond
		{101, 90, true}, // p90 is sample 91: ten beyond; p95 has five
		{1100, 99, true},
		{11000, 99.9, true},
	}
	for _, c := range cases {
		if p, ok := supportedTail(c.n); p != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v,%v; want %v,%v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	// root: 100 - union([10,60] u [90,100]) = 100 - 60 = 40.
	if self[1] != 40 {
		t.Errorf("root self = %d, want 40", self[1])
	}
	if self[2] != 20 { // a: 30 - a1's 10
		t.Errorf("a self = %d, want 20", self[2])
	}
	if self[3] != 30 || self[5] != 10 {
		t.Errorf("leaf self times = %d, %d, want 30, 10", self[3], self[5])
	}
	byName := selfByName(spans)
	if len(byName["root"]) != 1 || byName["root"][0] != 40 || byName["a"][0] != 20 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var off *tracer
	if id := off.start("x", 0, 1); id != 0 || off.end(id) != 0 {
		t.Error("nil tracer must record nothing")
	}
	tr := newTracer()
	root := tr.start("root", 0, 7)
	d := tr.timed("child", root, 7, func() {})
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Req != 7 || d < 0 || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}

func TestBounds(t *testing.T) {
	sp := spreadOf([]float64{100, 104, 108})
	if !sp.pass(0.10, false) || sp.pass(0.05, false) {
		t.Errorf("spread %v against 10%% and 5%%", sp)
	}
	if spreadOf([]float64{94, 94}).pass(0, true) != true || spreadOf([]float64{94, 95}).pass(0, true) {
		t.Error("a count must repeat exactly")
	}
}

func testReference(t *testing.T, seed int64) *reference {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: seed, ObjectsPerPatch: 50, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 1, SourceDeclLimit: sourceDeclLimit, MaxCopies: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return newReference(cat)
}

// list renders the first n statements of each class in rotation order:
// what a connection with that rotation issues.
func (g *stmtGen) list(rotation []string, n int) []stmt {
	next := map[string]int{}
	out := make([]stmt, 0, n)
	for i := 0; i < n; i++ {
		c := rotation[i%len(rotation)]
		out = append(out, g.make(c, next[c]))
		next[c]++
	}
	return out
}

func TestStatementListDeterminism(t *testing.T) {
	rotation := []string{clsLV1, clsLV2, clsLV1, clsLV3, clsHV1, clsHV3, clsSHV1, clsHV2, clsHV2m, clsHV2s}
	a := newStmtGen(7, testReference(t, 7), 94).list(rotation, 200)
	b := newStmtGen(7, testReference(t, 7), 94).list(rotation, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give a byte-identical statement list")
	}
	c := newStmtGen(8, testReference(t, 8), 94).list(rotation, 200)
	seen := map[string]bool{}
	for i := range a {
		if a[i].Class != c[i].Class {
			t.Fatalf("statement %d: class order differs across seeds: %s vs %s", i, a[i].Class, c[i].Class)
		}
		if a[i].Class != rotation[i%len(rotation)] {
			t.Fatalf("statement %d is %s, rotation says %s", i, a[i].Class, rotation[i%len(rotation)])
		}
		if seen[a[i].SQL] {
			t.Fatalf("statement repeated within a run: %s", a[i].SQL)
		}
		seen[a[i].SQL] = true
	}
	differ := 0
	for i := range a {
		if a[i].SQL != c[i].SQL {
			differ++
		}
	}
	if differ < len(a)*9/10 {
		t.Errorf("only %d of %d statements differ between seeds", differ, len(a))
	}
}

func TestHV2ExpectedRows(t *testing.T) {
	ref := &reference{izDiff: []float64{-3, -1, 0, 2, 6.5, 7, 9}}
	if got := ref.izAbove(6); got != 3 {
		t.Errorf("izAbove(6) = %d, want 3", got)
	}
	if got := ref.izAbove(7); got != 1 { // strictly greater
		t.Errorf("izAbove(7) = %d, want 1", got)
	}
}

func TestSameRows(t *testing.T) {
	a := [][]any{{int64(1), 2.5, "x"}, {int64(2), 1e9, nil}}
	b := [][]any{{int64(2), 1e9 * (1 + 1e-12), nil}, {int64(1), 2.5, "x"}}
	if err := sameRows(a, b); err != nil {
		t.Errorf("order and last-digit float differences must compare equal: %v", err)
	}
	if sameRows(a, [][]any{{int64(1), 2.5, "x"}}) == nil {
		t.Error("row count mismatch not noticed")
	}
	if sameRows(a, [][]any{{int64(1), 2.6, "x"}, {int64(2), 1e9, nil}}) == nil {
		t.Error("value mismatch not noticed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONAgrees pins BENCHMARK.json to the names, units and
// bounds the harness prints, and to the contract's limits.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the harness's definition; regenerate it with -spec\n got: %+v\nwant: %+v", onDisk, want)
	}
	names := map[string]bool{}
	use := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if names[n] {
			t.Errorf("name %q used twice", n)
		}
		names[n] = true
	}
	hasSetup := false
	for _, m := range onDisk.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(onDisk.EndToEnd) > 16 {
		t.Error("end_to_end needs setup_s and at most 16 metrics")
	}
	for _, m := range onDisk.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v outside the contract", m)
		}
	}
	if len(onDisk.PerLayer) < 1 || len(onDisk.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(onDisk.PerLayer))
	}
	if len(onDisk.Workloads) < 2 || len(onDisk.Workloads) > 8 {
		t.Errorf("%d workloads", len(onDisk.Workloads))
	}
	for _, w := range onDisk.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}

// TestPrintedNames checks that the figures a run prints outside the
// contract's lists (the class diagnostics) are per-layer names too, so a
// traced run can carry them.
func TestPrintedNames(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	ph := &phase{classes: map[string]*classSamples{}}
	for _, d := range classDiagnostics(ph, 1) {
		if !known[d.name] {
			t.Errorf("class diagnostic %s is not in the per-layer list", d.name)
		}
	}
	for _, n := range []string{"ingest_krows_per_s", "cold_scan_p50_ms", "disk_bytes_per_row", "restart_p50_ms"} {
		if !known[n] {
			t.Errorf("%s is not in the per-layer list", n)
		}
	}
}
