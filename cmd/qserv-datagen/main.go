// Command qserv-datagen prints the synthetic PT1.1-style catalog's
// declarative qserv.CatalogSpec as JSON, the document
// Cluster.CreateTables accepts:
//
//	qserv-datagen -spec
//
// The catalog's rows are not written anywhere: qserv-czar synthesizes
// them from its -seed and ingests them over the fabric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	qserv "repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it returns the exit status, 2 for arguments it
// does not take (the usage goes to out), 1 when the spec does not encode.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("qserv-datagen", flag.ContinueOnError)
	fs.SetOutput(out)
	spec := fs.Bool("spec", false, "print the catalog's CatalogSpec as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*spec || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	doc, err := json.MarshalIndent(qserv.LSSTSpec(), "", "  ")
	if err != nil {
		fmt.Fprintln(out, "qserv-datagen:", err)
		return 1
	}
	fmt.Fprintln(out, string(doc))
	return 0
}
