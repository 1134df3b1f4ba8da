package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro"
)

// TestRunAnswersAsTheOracle runs the example: the point it prints, the
// ordered rows of its scan and its object count, each read through
// database/sql, are the single-node oracle's for the same catalog and
// statements.
func TestRunAnswersAsTheOracle(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	printed := out.String()

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
	ask := func(sql string) []qserv.Row {
		t.Helper()
		res, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows
	}

	var want bytes.Buffer
	point := ask(strings.Replace(pointSQL, "?", fmt.Sprint(pointID), 1))
	if len(point) != 1 {
		t.Fatalf("the oracle answers %d rows for object %d; the example shows nothing worth checking", len(point), pointID)
	}
	printPoint(&want, pointID, point[0][0].(float64), point[0][1].(float64))
	scan := ask(strings.NewReplacer("> ?", fmt.Sprint("> ", scanFlux), "LIMIT ?", fmt.Sprint("LIMIT ", scanRows)).Replace(scanSQL))
	if len(scan) != scanRows {
		t.Fatalf("the oracle answers %d rows of the scan, want %d", len(scan), scanRows)
	}
	for _, r := range scan {
		printRow(&want, r[0].(int64), r[1].(float64))
	}
	fmt.Fprintf(&want, "%v objects across ", ask(countSQL)[0][0])
	if !strings.HasPrefix(printed, want.String()) {
		t.Errorf("the example prints\n%s\nthe oracle answers\n%s", printed, want.String())
	}
}
