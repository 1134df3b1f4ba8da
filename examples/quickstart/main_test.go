package main

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// printed collects what the example printed for each statement: the lines
// of printRows (the columns, the rows, the count of rows not shown) under
// the "> statement" line they follow.
func printed(out string) map[string][]string {
	answers := map[string][]string{}
	var sql string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "> "):
			sql, _, _ = strings.Cut(line[2:], "  (session")
		case strings.HasPrefix(line, "  [") || strings.HasPrefix(line, "  ... ("):
			answers[sql] = append(answers[sql], line)
		}
	}
	return answers
}

// sameLine reports whether two printed lines say the same: cell for cell,
// a number that averages over several chunks allowed the rounding of a sum
// taken in another order.
func sameLine(a, b string) bool {
	if a == b {
		return true
	}
	as, bs := strings.Fields(strings.Trim(a, " []")), strings.Fields(strings.Trim(b, " []"))
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		x, errx := strconv.ParseFloat(as[i], 64)
		y, erry := strconv.ParseFloat(bs[i], 64)
		if as[i] != bs[i] && (errx != nil || erry != nil || math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}

// TestRunAnswersAsTheOracle runs the example: every answer it prints — the
// rows of each query, as many as it shows, and the session's row count — is
// the single-node oracle's for the same catalog and statement.
func TestRunAnswersAsTheOracle(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := printed(out.String())

	cat, err := catalog()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := qserv.NewOracle(qserv.DefaultClusterConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Load(cat); err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		res, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: the oracle answers no row; the example shows nothing worth checking", sql)
		}
		var want bytes.Buffer
		printRows(&want, res.Cols, res.Rows, 5)
		lines := strings.Split(strings.TrimSuffix(want.String(), "\n"), "\n")
		ok := len(lines) == len(got[sql])
		for i := 0; ok && i < len(lines); i++ {
			ok = sameLine(got[sql][i], lines[i])
		}
		if !ok {
			t.Errorf("%s: the example prints\n%s\nthe oracle answers\n%s", sql, strings.Join(got[sql], "\n"), want.String())
		}
	}

	m := regexp.MustCompile(`streamed (\d+) rows while \d+/\d+ chunks merged; final result (\d+) rows`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("the example printed no session count:\n%s", out.String())
	}
	res, err := oracle.Query(streamSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.Itoa(len(res.Rows))
	if m[1] != want || m[2] != want || want == "0" {
		t.Errorf("the session streamed %s rows and answered %s, the oracle %s", m[1], m[2], want)
	}
}
