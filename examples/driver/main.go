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
	"log"

	"repro"
	_ "repro/driver"
	"repro/internal/datagen"
)

func main() {
	// Stand up a small cluster and serve the SQL frontend on an
	// ephemeral port (the driver speaks its streaming protocol).
	cat, err := datagen.Generate(
		datagen.Config{Seed: 1, ObjectsPerPatch: 500, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := qserv.NewCluster(qserv.DefaultClusterConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Load(cat); err != nil {
		log.Fatal(err)
	}
	front, err := cluster.ServeFrontend("127.0.0.1:0", qserv.DefaultFrontendConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()

	// The DSN names the user (the admission-control identity) and the
	// database: qserv://<user>@<host:port>/<db>.
	db, err := sql.Open("qserv", "qserv://astronomer@"+front.Addr()+"/LSST")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		log.Fatal(err)
	}

	// A point query with a placeholder (LV1: the objectId index makes
	// this one indexed dive, not a scan).
	var ra, decl float64
	err = db.QueryRow(
		"SELECT ra_PS, decl_PS FROM Object WHERE objectId = ?", 42,
	).Scan(&ra, &decl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("object 42 at ra=%.4f decl=%.4f\n", ra, decl)

	// A scan whose rows stream: rows.Next returns the first row as soon
	// as the first chunk merges, long before the scan finishes.
	rows, err := db.Query(
		"SELECT objectId, ra_PS FROM Object WHERE uFlux_PS > ? ORDER BY ra_PS, objectId LIMIT ?",
		2.5e-31, 5,
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id, &ra); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("object %-12d ra=%.4f\n", id, ra)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}

	// Aggregates distribute: the COUNT runs as one chunk query per
	// partition, partials merging at the czar.
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM Object").Scan(&n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d objects across %d chunks\n", n, len(cluster.Placement.Chunks()))
}
