// Driver: connect to a Qserv frontend with Go's standard database/sql
// package. An in-process cluster stands in for a deployed one — the
// same code works against a real `qserv-czar` by pointing the DSN at
// its listen address. The blank import registers the "qserv" driver;
// everything after sql.Open is stock database/sql: placeholders,
// QueryRow, streaming Rows, context cancellation (which kills the
// query server-side, freeing worker scan slots).
package main

import (
	"database/sql"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	_ "repro/driver"
	"repro/internal/datagen"
)

// workers sizes the example's cluster; the statements are the ones it asks
// through database/sql, with their placeholders' arguments.
const (
	workers  = 4
	pointSQL = "SELECT ra_PS, decl_PS FROM Object WHERE objectId = ?"
	pointID  = 42
	scanSQL  = "SELECT objectId, ra_PS FROM Object WHERE uFlux_PS > ? ORDER BY ra_PS, objectId LIMIT ?"
	scanFlux = 2.5e-31
	scanRows = 5
	countSQL = "SELECT COUNT(*) FROM Object"
)

// catalog synthesizes the catalog the example serves.
func catalog() (*datagen.Catalog, error) {
	return datagen.Generate(
		datagen.Config{Seed: 1, ObjectsPerPatch: 500, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run loads the catalog into a cluster behind the frontend and asks it,
// through database/sql, for one object's position, the first rows of an
// ordered scan and the object count, printing each answer.
func run(out io.Writer) error {
	// Stand up a small cluster and serve the SQL frontend on an
	// ephemeral port (the driver speaks its streaming protocol).
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
	front, err := cluster.ServeFrontend("127.0.0.1:0", qserv.DefaultFrontendConfig())
	if err != nil {
		return err
	}
	defer front.Close()

	// The DSN names the user (the admission-control identity) and the
	// database: qserv://<user>@<host:port>/<db>.
	db, err := sql.Open("qserv", "qserv://astronomer@"+front.Addr()+"/LSST")
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		return err
	}

	// A point query with a placeholder (LV1: the objectId index makes
	// this one indexed dive, not a scan).
	var ra, decl float64
	if err := db.QueryRow(pointSQL, pointID).Scan(&ra, &decl); err != nil {
		return err
	}
	printPoint(out, pointID, ra, decl)

	// A scan whose rows stream: rows.Next returns the first row as soon
	// as the first chunk merges, long before the scan finishes.
	rows, err := db.Query(scanSQL, scanFlux, scanRows)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id, &ra); err != nil {
			return err
		}
		printRow(out, id, ra)
	}
	if err := rows.Err(); err != nil {
		return err
	}

	// Aggregates distribute: the COUNT runs as one chunk query per
	// partition, partials merging at the czar.
	var n int64
	if err := db.QueryRow(countSQL).Scan(&n); err != nil {
		return err
	}
	fmt.Fprintf(out, "%d objects across %d chunks\n", n, len(cluster.Placement.Chunks()))
	return nil
}

// printPoint prints the answer to pointSQL.
func printPoint(out io.Writer, id int64, ra, decl float64) {
	fmt.Fprintf(out, "object %d at ra=%.4f decl=%.4f\n", id, ra, decl)
}

// printRow prints one row of scanSQL's answer.
func printRow(out io.Writer, id int64, ra float64) {
	fmt.Fprintf(out, "object %-12d ra=%.4f\n", id, ra)
}
