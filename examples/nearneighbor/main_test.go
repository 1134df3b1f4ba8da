package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"repro"
)

// TestRunCountsTheOraclesPairs runs the example: the pair count it prints
// is the single-node oracle's for the same catalog and statement, and the
// radius beyond the overlap is refused, naming the overlap.
func TestRunCountsTheOraclesPairs(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`pairs \(including self-pairs\): (\d+)\n`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("the example printed no pair count:\n%s", out.String())
	}
	got, _ := strconv.ParseInt(m[1], 10, 64)

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
	res, err := oracle.Query(pairsSQL)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Rows[0][0].(int64); got != want || got == 0 {
		t.Errorf("the example counts %d pairs, the oracle %d", got, want)
	}
	if !regexp.MustCompile(`radius beyond overlap correctly rejected: .*overlap`).MatchString(out.String()) {
		t.Errorf("the beyond-overlap radius is not reported refused for the overlap:\n%s", out.String())
	}
}
