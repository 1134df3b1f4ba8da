package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	qserv "repro"
)

// TestRunPrintsTheSpecClusterCreateTablesTakes: -spec prints JSON that
// decodes to the catalog's CatalogSpec and validates; any other arguments
// print the usage and exit 2.
func TestRunPrintsTheSpecClusterCreateTablesTakes(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-spec"}, &out); code != 0 {
		t.Fatalf("-spec exits %d:\n%s", code, out.String())
	}
	var spec qserv.CatalogSpec
	if err := json.Unmarshal(out.Bytes(), &spec); err != nil {
		t.Fatalf("-spec printed no spec: %v\n%s", err, out.String())
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("the printed spec does not validate: %v", err)
	}
	if want := qserv.LSSTSpec(); !reflect.DeepEqual(spec, want) {
		t.Errorf("the printed spec is\n%+v\nnot the catalog's\n%+v", spec, want)
	}

	for _, args := range [][]string{nil, {"-spec", "extra"}, {"-objects", "5"}} {
		out.Reset()
		if code := run(args, &out); code != 2 {
			t.Errorf("%q exits %d, want 2", args, code)
		}
		if !strings.Contains(out.String(), "-spec") {
			t.Errorf("%q prints no usage:\n%s", args, out.String())
		}
	}
}
