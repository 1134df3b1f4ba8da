// Quickstart: build an 8-worker in-process Qserv cluster, load a
// synthetic partial-sky catalog, and run the paper's basic query shapes
// through the public API — the synchronous Query convenience and the
// asynchronous session form (Submit / Progress / Rows / Wait) the czar
// manages multi-hour scans with.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/datagen"
	"repro/internal/sqlengine"
)

// workers sizes the example's cluster; queries are the statements it asks
// with Query, and streamSQL the one it asks as a session.
const (
	workers   = 8
	streamSQL = "SELECT objectId, ra_PS, decl_PS FROM Object WHERE uFlux_PS > 2.5e-31"
)

var queries = []string{
	// Point retrieval through the objectId secondary index (LV1).
	"SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = 42",
	// Full-sky count: one chunk query per partition (HV1).
	"SELECT COUNT(*) FROM Object",
	// The paper's section 5.3 rewriting example.
	"SELECT AVG(uFlux_SG) FROM Object WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04",
	// Per-chunk density (HV3).
	"SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId ORDER BY n DESC, chunkId LIMIT 5",
}

// catalog synthesizes a PT1.1-style patch and duplicates it over a band of
// sky (paper section 6.1.2).
func catalog() (*datagen.Catalog, error) {
	return datagen.Generate(
		datagen.Config{Seed: 1, ObjectsPerPatch: 500, MeanSourcesPerObject: 3},
		datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 40},
	)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run loads the catalog into a cluster and prints the answer to each query,
// then the session's.
func run(out io.Writer) error {
	cat, err := catalog()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "catalog: %d objects, %d sources\n", len(cat.Objects), len(cat.Sources))

	cluster, err := qserv.NewCluster(qserv.DefaultClusterConfig(workers))
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := cluster.Load(cat); err != nil {
		return err
	}
	fmt.Fprintf(out, "cluster: %d workers, %d chunks placed\n\n",
		len(cluster.Workers), len(cluster.Placement.Chunks()))

	for _, sql := range queries {
		res, err := cluster.Query(sql)
		if err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
		fmt.Fprintf(out, "> %s\n", sql)
		fmt.Fprintf(out, "  %d chunk queries, %d bytes of results collected, %v elapsed\n",
			res.ChunksDispatched, res.ResultBytes, res.Elapsed)
		printRows(out, res.Cols, res.Rows, 5)
		fmt.Fprintln(out)
	}

	// The session form: submit, stream rows as chunk results merge,
	// then collect the accounting. A long scan streams its first rows
	// hours before it finishes; here it just finishes fast.
	q, err := cluster.Submit(context.Background(), streamSQL)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "> %s  (session %d)\n", streamSQL, q.ID())
	streamed := 0
	it := q.Rows()
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		streamed++
	}
	if err := it.Err(); err != nil {
		return err
	}
	// The rows had one reader, the iterator: Wait reports how the query
	// ended, and its progress how many rows its chunks returned.
	if _, err := q.Wait(context.Background()); err != nil {
		return err
	}
	p := q.Progress()
	fmt.Fprintf(out, "  streamed %d rows while %d/%d chunks merged; final result %d rows\n",
		streamed, p.ChunksCompleted, p.ChunksTotal, p.RowsMerged)
	return nil
}

func printRows(out io.Writer, cols []string, rows []qserv.Row, limit int) {
	fmt.Fprintf(out, "  %v\n", cols)
	for i, r := range rows {
		if i >= limit {
			fmt.Fprintf(out, "  ... (%d more rows)\n", len(rows)-limit)
			return
		}
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = sqlengine.FormatValue(v)
		}
		fmt.Fprintf(out, "  %v\n", vals)
	}
}
