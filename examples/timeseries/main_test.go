package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/sqlengine"
)

// TestRunAnswersAsTheOracle runs the example: the light curve it prints, as
// the frontend's client read it, and the detection count it prints are the
// single-node oracle's for the same catalog and statements.
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
	curve, err := oracle.Query(curveSQL)
	if err != nil {
		t.Fatal(err)
	}
	count, err := oracle.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Rows) == 0 {
		t.Fatal("the oracle answers no light curve; the example shows nothing worth checking")
	}
	// The whole curve, and nothing after it but the count.
	var want bytes.Buffer
	printCurve(&want, curve.Rows)
	fmt.Fprintf(&want, "\ndetections: %s;", sqlengine.FormatValue(count.Rows[0][0]))
	if !strings.Contains(printed, want.String()) {
		t.Errorf("the example prints\n%s\nthe oracle answers\n%s", printed, want.String())
	}
}
