package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	qserv "repro"
	"repro/internal/datagen"
)

// TestRunAgainstAFrontend drives the client against an in-process frontend:
// -e with one SELECT prints the oracle's answer, then SHOW PROCESSLIST its
// header; the REPL reads a statement over two lines; a failing statement
// exits 1, and arguments the command does not take exit 2 with the usage.
func TestRunAgainstAFrontend(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 100, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := qserv.NewCluster(qserv.DefaultClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	fe, err := cl.ServeFrontend("127.0.0.1:0", qserv.DefaultFrontendConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	addr := fe.Addr()
	count := strconv.Itoa(len(cat.Objects))

	var out bytes.Buffer
	if code := run([]string{"-addr", addr, "-e", "SELECT COUNT(*) FROM Object"}, nil, &out); code != 0 {
		t.Fatalf("-e SELECT exits %d:\n%s", code, out.String())
	}
	if lines := strings.Split(out.String(), "\n"); len(lines) < 4 || lines[0] != "COUNT(*)" || lines[2] != count ||
		!strings.HasPrefix(lines[3], "1 row(s)") {
		t.Errorf("-e SELECT printed, for %s objects:\n%s", count, out.String())
	}

	out.Reset()
	if code := run([]string{"-addr", addr, "-e", "SHOW PROCESSLIST"}, nil, &out); code != 0 {
		t.Fatalf("-e SHOW PROCESSLIST exits %d:\n%s", code, out.String())
	}
	if first, _, _ := strings.Cut(out.String(), "\n"); first != "Id\tClass\tTime\tChunks\tRows\tInfo" {
		t.Errorf("SHOW PROCESSLIST printed:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-addr", addr}, strings.NewReader("SELECT COUNT(*)\nFROM Object;\nquit\n"), &out); code != 0 {
		t.Fatalf("the REPL exits %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "    -> COUNT(*)\n") || !strings.Contains(out.String(), "\n"+count+"\n") {
		t.Errorf("the REPL printed:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-addr", addr, "-e", "SELECT * FROM NoSuchTable"}, nil, &out); code != 1 || !strings.HasPrefix(out.String(), "ERROR") {
		t.Errorf("a failing statement exits %d:\n%s", code, out.String())
	}
	for _, args := range [][]string{{"-addr", addr, "extra"}, {"-no-such-flag"}} {
		out.Reset()
		if code := run(args, nil, &out); code != 2 || !strings.Contains(out.String(), "-addr") {
			t.Errorf("%q exits %d:\n%s", args, code, out.String())
		}
	}
}
