package qserv

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/sqlparse"
	"repro/internal/worker"
)

// readDoc returns a file of the repository as text.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// daemonFlags lists the flags a cmd/ program declares, read off its source
// (on the flag package, or on a FlagSet named fs): the daemons are package
// main and cannot be imported.
func daemonFlags(t *testing.T, program string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", program, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("cmd/%s: no source (%v)", program, err)
	}
	decl := regexp.MustCompile(`\b(?:flag|fs)\.(?:String|Int|Int64|Bool|Duration|Float64)\("([a-z][a-z0-9-]*)"`)
	var flags []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			flags = append(flags, "-"+string(m[1]))
		}
	}
	slices.Sort(flags)
	return flags
}

// docFlag matches a flag as the documents write one: after a backtick.
var docFlag = regexp.MustCompile("`(-[a-z][a-z0-9-]*)")

// docFlags lists the flags text names, sorted, each once.
func docFlags(text string) []string {
	var flags []string
	for _, m := range docFlag.FindAllStringSubmatch(text, -1) {
		flags = append(flags, m[1])
	}
	slices.Sort(flags)
	return slices.Compact(flags)
}

// flagTable lists the flags in the first column of README's table headed by
// the program's name.
func flagTable(t *testing.T, readme, program string) []string {
	t.Helper()
	_, table, ok := strings.Cut(readme, "| `"+program+"` | default |")
	if !ok {
		t.Fatalf("README.md has no flag table for %s", program)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var firstCells strings.Builder
	for _, row := range strings.Split(table, "\n")[2:] { // the header's tail, the |---| line
		firstCells.WriteString(strings.Split(row, "|")[1])
	}
	return docFlags(firstCells.String())
}

// TestDocsNameTheKnobsThatExist holds README.md and docs/ARCHITECTURE.md to
// the code on the facts a deleted or added knob changes: every exported
// field of ClusterConfig and worker.Config is named in one of them, every
// ClusterConfig.<X> they name exists, README's two flag tables are the
// daemons' flags, and no `-flag` either names is one the daemons dropped.
func TestDocsNameTheKnobsThatExist(t *testing.T) {
	readme := readDoc(t, "README.md")
	docs := readme + readDoc(t, "docs/ARCHITECTURE.md")

	cluster := reflect.TypeOf(ClusterConfig{})
	for _, typ := range []reflect.Type{cluster, reflect.TypeOf(worker.Config{})} {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if f.IsExported() && !regexp.MustCompile(`\b`+f.Name+`\b`).MatchString(docs) {
				t.Errorf("%s.%s is named in neither README.md nor docs/ARCHITECTURE.md", typ, f.Name)
			}
		}
	}
	// ARCHITECTURE counts each struct's fields; the count is the struct's.
	arch := readDoc(t, "docs/ARCHITECTURE.md")
	for name, typ := range map[string]reflect.Type{"ClusterConfig": cluster, "worker.Config": reflect.TypeOf(worker.Config{})} {
		count := regexp.MustCompile("`" + regexp.QuoteMeta(name) + "` \\((\\d+) fields\\)")
		if m := count.FindStringSubmatch(arch); m == nil || m[1] != strconv.Itoa(typ.NumField()) {
			t.Errorf("docs/ARCHITECTURE.md does not say `%s` (%d fields)", name, typ.NumField())
		}
	}
	for _, m := range regexp.MustCompile(`ClusterConfig\.([A-Z]\w*)`).FindAllStringSubmatch(docs, -1) {
		_, field := cluster.FieldByName(m[1])
		_, method := cluster.MethodByName(m[1])
		if !field && !method {
			t.Errorf("the documents name %s, which ClusterConfig does not have", m[0])
		}
	}

	// Flags of the other programs and of the go tool that the documents
	// name; a new one is added here.
	known := []string{"-exp", "-json", "-race"}
	for _, program := range []string{"qserv-czar", "qserv-worker"} {
		flags := daemonFlags(t, program)
		if table := flagTable(t, readme, program); !slices.Equal(table, flags) {
			t.Errorf("README.md's %s flag table lists\n %v, the program declares\n %v", program, table, flags)
		}
		known = append(known, flags...)
	}
	for _, f := range docFlags(docs) {
		if !slices.Contains(known, f) {
			t.Errorf("the documents name the flag %s, which neither daemon declares", f)
		}
	}
}

// TestFuzzSmokeRunsEveryFuzzTarget holds `make fuzz-smoke` to the fuzz
// targets that exist: its recipe runs each func Fuzz* of the module's test
// files once, in the package that declares it, and nothing else, and the
// CI step that runs it counts them right.
func TestFuzzSmokeRunsEveryFuzzTarget(t *testing.T) {
	var declared []string
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir // bench/ is a module of its own
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared = append(declared, "./"+filepath.ToSlash(filepath.Dir(path))+" "+string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, _ := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	var run []string
	for _, m := range regexp.MustCompile(`test (\S+) -run '\^\$\$' -fuzz '\^(Fuzz\w+)\$\$'`).FindAllStringSubmatch(recipe, -1) {
		run = append(run, m[1]+" "+m[2])
	}
	slices.Sort(declared)
	slices.Sort(run)
	if len(declared) == 0 || !slices.Equal(run, declared) {
		t.Errorf("make fuzz-smoke runs\n %v\nthe test files declare\n %v", run, declared)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`name: Fuzz smoke \((\d+) targets`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml has no Fuzz smoke step naming its target count")
	}
	if n, _ := strconv.Atoi(string(m[1])); n != len(declared) {
		t.Errorf("ci.yml's Fuzz smoke step says %d targets, there are %d", n, len(declared))
	}
}

// TestCodeCitesNoRoadmapItem: no comment of a non-test Go file cites
// ROADMAP.md, whose items are renumbered as the plan changes; a comment
// states what the code does and the paper section it serves.
func TestCodeCitesNoRoadmapItem(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				if strings.Contains(c.Text, "ROADMAP") {
					t.Errorf("%s: a comment cites the roadmap: %s", fset.Position(c.Pos()), c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsRunMakeTargetsThatExist: every `make <target>` README.md,
// docs/ARCHITECTURE.md and the repository's build-and-run notes tell a
// reader to run — in backticks, or on a line of a fenced block — is a rule
// of the Makefile.
func TestDocsRunMakeTargetsThatExist(t *testing.T) {
	rules := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(readDoc(t, "Makefile"), -1) {
		rules[m[1]] = true
	}
	fencedMake := regexp.MustCompile(`^\s*make ([a-z][a-z0-9-]*)`)
	notes, _ := filepath.Glob(".*/skills/verify/SKILL.md") // the build-and-run notes
	for _, name := range append([]string{"README.md", "docs/ARCHITECTURE.md"}, notes...) {
		text := readDoc(t, name)
		var targets []string
		for _, m := range regexp.MustCompile("`make ([a-z][a-z0-9-]*)").FindAllStringSubmatch(text, -1) {
			targets = append(targets, m[1])
		}
		fenced := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if m := fencedMake.FindStringSubmatch(line); fenced && m != nil {
				targets = append(targets, m[1])
			}
		}
		if len(targets) == 0 {
			t.Errorf("%s names no make target: the check has nothing to hold", name)
		}
		for _, target := range targets {
			if !rules[target] {
				t.Errorf("%s runs `make %s`, which the Makefile has no rule for", name, target)
			}
		}
	}
}

// TestDocsNameMetricsThatExist holds README.md and docs/ARCHITECTURE.md to
// the metric families a cluster registers — those of a small durable cluster
// serving a frontend, after one query: every prefix of ARCHITECTURE §15's
// list prefixes one of them, and every full family the documents name under
// one of those prefixes is one of them.
func TestDocsNameMetricsThatExist(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.DataDir = t.TempDir()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(ingestTestCatalog(t)); err != nil {
		t.Fatal(err)
	}
	startFrontend(t, cl, DefaultFrontendConfig())
	if _, err := cl.Query("SELECT COUNT(*) FROM Object"); err != nil {
		t.Fatal(err)
	}
	families := seriesNames(cl.Metrics())

	readme, arch := readDoc(t, "README.md"), readDoc(t, "docs/ARCHITECTURE.md")
	_, telemetry, _ := strings.Cut(arch, "\n## 15.")
	telemetry, _, _ = strings.Cut(telemetry, "\n## ")
	var prefixes []string
	for _, m := range regexp.MustCompile("`(qserv_[a-z]+_)`").FindAllStringSubmatch(telemetry, -1) {
		prefixes = append(prefixes, m[1])
	}
	if len(prefixes) < 5 {
		t.Fatalf("ARCHITECTURE §15 lists %d metric prefixes: the check has nothing to hold", len(prefixes))
	}
	for _, prefix := range prefixes {
		found := false
		for name := range families {
			found = found || strings.HasPrefix(name, prefix)
		}
		if !found {
			t.Errorf("ARCHITECTURE §15 lists the prefix %s, which no registered family has", prefix)
		}
	}

	// A family is a prefix and a name; a Go file named after one is not.
	family := regexp.MustCompile(`(` + strings.Join(prefixes, "|") + `)[a-z0-9_]*[a-z0-9](\.go)?`)
	named := 0
	for _, doc := range []string{readme, arch} {
		for _, m := range family.FindAllStringSubmatch(doc, -1) {
			if m[2] != "" {
				continue
			}
			named++
			if !families[m[0]] {
				t.Errorf("the documents name the metric %s, which the cluster does not register", m[0])
			}
		}
	}
	if named < 4 {
		t.Errorf("the documents name %d metric families: the check has nothing to hold", named)
	}
}

// TestDocsNameExperimentsThatExist: every `qserv-bench -exp <id>` README.md
// and docs/ARCHITECTURE.md name is an experiment of the program's registry,
// one of its groups, or all.
func TestDocsNameExperimentsThatExist(t *testing.T) {
	known := map[string]bool{"all": true}
	entry := regexp.MustCompile(`\{"([a-z0-9-]+)", "([a-z]+)",`)
	for _, m := range entry.FindAllStringSubmatch(readDoc(t, "cmd/qserv-bench/main.go"), -1) {
		known[m[1]], known[m[2]] = true, true
	}
	if len(known) < 4 {
		t.Fatalf("read %d experiment ids and groups off cmd/qserv-bench/main.go", len(known)-1)
	}
	for _, name := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		for _, m := range regexp.MustCompile(`-exp ([a-z][a-z0-9-]*)`).FindAllStringSubmatch(readDoc(t, name), -1) {
			if !known[m[1]] {
				t.Errorf("%s names qserv-bench -exp %s, which is no experiment or group", name, m[1])
			}
		}
	}
}

// TestDocsRunStatementsThatExist: every statement README.md,
// docs/ARCHITECTURE.md and the build-and-run notes show — in backticks, or
// as a `qserv-sql -e` argument — is one the system answers: a SHOW of the
// czar's statement table or the frontend's SHOW FRONTEND, KILL, EXPLAIN, or
// a SELECT that parses (one holding a placeholder, `…` or `<x>`, is
// checked by its first word only). None is a statement that writes: SELECT
// is the one statement the dialect has. Every SHOW that is answered is
// named in README.md, and every SHOW shown without a placeholder answers
// on a one-worker cluster: through Cluster.Query, SHOW FRONTEND through a
// served frontend.
func TestDocsRunStatementsThatExist(t *testing.T) {
	var shows []string
	for _, m := range regexp.MustCompile(`words: "SHOW ([A-Z]+)"`).FindAllStringSubmatch(readDoc(t, "internal/czar/manage.go"), -1) {
		shows = append(shows, m[1])
	}
	if len(shows) < 5 {
		t.Fatalf("read %d SHOW statements off internal/czar/manage.go", len(shows))
	}
	if !regexp.MustCompile(`EqualFold\([^;]*"SHOW"\) && [^;]*"FRONTEND"\)`).MatchString(readDoc(t, "internal/frontend/frontend.go")) {
		t.Fatal("internal/frontend/frontend.go does not answer SHOW FRONTEND")
	}
	shows = append(shows, "FRONTEND")
	readme := readDoc(t, "README.md")
	for _, show := range shows {
		if !strings.Contains(readme, "SHOW "+show) {
			t.Errorf("README.md does not name SHOW %s, which is answered", show)
		}
	}

	cl, err := NewCluster(DefaultClusterConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query("SELECT COUNT(*) FROM Object"); err != nil { // a finished query for SHOW PROFILE
		t.Fatal(err)
	}
	fe, err := cl.ServeFrontend("127.0.0.1:0", FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr(), "docs", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	answers := func(text string) error {
		if strings.EqualFold(strings.Join(strings.Fields(text), " "), "SHOW FRONTEND") {
			_, _, err := wireQuery(client, text)
			return err
		}
		_, err := cl.Query(text)
		return err
	}

	statement := regexp.MustCompile("`((?:SHOW|KILL|EXPLAIN|SELECT|CREATE|INSERT|DROP|UPDATE|DELETE|ALTER)\\b[^`]*)`|-e \"([^\"<]+)\"")
	notes, _ := filepath.Glob(".*/skills/verify/SKILL.md") // the build-and-run notes
	checked := 0
	for _, name := range append([]string{"README.md", "docs/ARCHITECTURE.md"}, notes...) {
		for _, m := range statement.FindAllStringSubmatch(readDoc(t, name), -1) {
			text := strings.TrimSuffix(strings.TrimSpace(m[1]+m[2]), ";")
			fields := strings.Fields(text)
			placeholder := strings.ContainsAny(text, "…<") || strings.Contains(text, "...")
			checked++
			switch strings.ToUpper(fields[0]) {
			case "SHOW":
				if len(fields) < 2 || !slices.Contains(shows, strings.ToUpper(fields[1])) && fields[1] != "…" {
					t.Errorf("%s shows `%s`, a SHOW that is not answered", name, text)
				} else if err := answers(text); err != nil && !placeholder {
					t.Errorf("%s shows `%s`, which does not answer: %v", name, text, err)
				}
			case "KILL", "EXPLAIN":
			case "SELECT":
				if _, err := sqlparse.ParseSelect(text); err != nil && !placeholder {
					t.Errorf("%s shows `%s`, which does not parse: %v", name, text, err)
				}
			default:
				t.Errorf("%s shows `%s`, a statement that writes: SELECT is the one statement there is", name, text)
			}
		}
	}
	if checked < 10 {
		t.Errorf("the documents show %d statements: the check has nothing to hold", checked)
	}
}
