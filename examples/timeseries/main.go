// Time series: the paper's Low Volume 2 workload — fetch every
// detection of one astronomical object from the Source table, served
// through the SQL-over-TCP frontend (the MySQL Proxy's role, section
// 5.4) so any client can speak to the cluster. Demonstrates the objectId
// secondary index: the czar dispatches to exactly one chunk.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/datagen"
	"repro/internal/frontend"
	"repro/internal/sqlengine"
)

// workers sizes the example's cluster; curveSQL is the light curve it asks
// for over the wire (LV2), and countSQL the count it asks through the
// library.
const (
	workers  = 4
	curveSQL = `SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl
		FROM Source WHERE objectId = 17 ORDER BY taiMidPoint`
	countSQL = "SELECT COUNT(*) FROM Source WHERE objectId = 17"
)

// catalog synthesizes the patch the example serves, duplicated over one
// band of sky.
func catalog() (*datagen.Catalog, error) {
	return datagen.Generate(
		datagen.Config{Seed: 5, ObjectsPerPatch: 400, MeanSourcesPerObject: 8},
		datagen.DuplicateConfig{DeclBands: 1, SourceDeclLimit: 54, MaxCopies: 10},
	)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run loads the catalog into a cluster behind the frontend, prints object
// 17's light curve as a client reads it and its detection count as the
// library answers it, then shows a scan session in SHOW PROCESSLIST and
// kills it.
func run(out io.Writer) error {
	cat, err := catalog()
	if err != nil {
		return err
	}
	cluster, err := qserv.NewCluster(qserv.DefaultClusterConfig(workers))
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := cluster.Load(cat); err != nil {
		return err
	}

	// Front the czar with the SQL-over-TCP frontend.
	srv, err := cluster.ServeFrontend("127.0.0.1:0", qserv.DefaultFrontendConfig())
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := frontend.Dial(srv.Addr(), "astronomer", "LSST")
	if err != nil {
		return err
	}
	defer client.Close()
	fmt.Fprintf(out, "frontend listening on %s; cluster holds %d sources\n\n", srv.Addr(), len(cat.Sources))

	// Light curve of object 17, in AB magnitudes, ordered by epoch.
	_, rows, err := queryAll(client, curveSQL)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("object 17 has no detections; re-seed the catalog")
	}
	fmt.Fprintf(out, "> %s\n", curveSQL)
	printCurve(out, rows)

	// The same through the library API, to show the index effect.
	direct, err := cluster.Query(countSQL)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\ndetections: %s; chunk queries dispatched: %d (index hit exactly one chunk)\n",
		sqlengine.FormatValue(direct.Rows[0][0]), direct.ChunksDispatched)

	// Query management over the same wire (paper section 5): a detached
	// scan session shows up in SHOW PROCESSLIST and dies to KILL.
	scan, err := cluster.Submit(context.Background(),
		"SELECT COUNT(*) AS n FROM Source WHERE psfFlux > 1e-31")
	if err != nil {
		return err
	}
	cols, pl, err := queryAll(client, "SHOW PROCESSLIST")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nSHOW PROCESSLIST: %d in-flight (cols %v)\n", len(pl), cols)
	if _, _, err := queryAll(client, fmt.Sprintf("KILL %d", scan.ID())); err != nil {
		// The scan may have finished first at this toy scale.
		fmt.Fprintf(out, "KILL %d: %v\n", scan.ID(), err)
	} else if _, werr := scan.Wait(context.Background()); werr != nil {
		fmt.Fprintf(out, "KILL %d: session ended with %v\n", scan.ID(), werr)
	}
	return nil
}

// printCurve prints a light curve: a header, then one line per row with its
// epoch, magnitude and position.
func printCurve(out io.Writer, rows [][]sqlengine.Value) {
	fmt.Fprintf(out, "%-12s %-10s %-12s\n", "epoch (MJD)", "mag (AB)", "position")
	for _, row := range rows {
		fmt.Fprintf(out, "%-12.2f %-10.3f (%.5f, %+.5f)\n",
			row[0].(float64), row[1].(float64), row[3].(float64), row[4].(float64))
	}
}

// queryAll runs one statement over the wire and collects its streamed
// rows.
func queryAll(c *frontend.Client, sql string) (cols []string, rows [][]sqlengine.Value, err error) {
	st, err := c.Query(context.Background(), sql)
	if err != nil {
		return nil, nil, err
	}
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	return st.Cols(), rows, st.Err()
}
