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
	"os"

	qserv "repro"
)

func main() {
	spec := flag.Bool("spec", false, "print the catalog's CatalogSpec as JSON")
	flag.Parse()
	if !*spec {
		flag.Usage()
		os.Exit(2)
	}
	out, err := json.MarshalIndent(qserv.LSSTSpec(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qserv-datagen:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
