package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunAnswersAsTheOracle runs the example: every answer it prints, row
// for row and in order, is the single-node oracle's for the same spec,
// rows and statement.
func TestRunAnswersAsTheOracle(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	printed := out.String()

	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		res, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("the oracle answers no row to %s; the example shows nothing worth checking", sql)
		}
		var want bytes.Buffer
		printAnswer(&want, sql, res.Rows)
		if !strings.Contains(printed, want.String()) {
			t.Errorf("the example prints\n%s\nthe oracle answers\n%s", printed, want.String())
		}
	}
}
