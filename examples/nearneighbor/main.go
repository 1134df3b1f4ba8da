// Near-neighbor: the paper's Super High Volume 1 workload — find pairs
// of objects within a small angular distance inside a sky region. This
// is the query class two-level partitioning and overlap exist for
// (sections 4.4 and 5.2): the czar rewrites the self-join into
// per-subchunk joins against on-the-fly subchunk and overlap tables, so
// no worker ever needs another worker's rows.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/datagen"
)

// workers sizes the example's cluster, and pairsSQL counts ordered pairs
// within 0.2 degrees inside a 10x10 degree box (the paper's SHV1 shape; the
// radius must be <= the 0.5 degree overlap the cluster is partitioned with).
const (
	workers  = 6
	pairsSQL = `SELECT count(*) FROM Object o1, Object o2
	WHERE qserv_areaspec_box(2, -5, 12, 5)
	AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2`
)

// catalog is the example's sky: an equatorial band of synthetic objects.
func catalog() (*datagen.Catalog, error) {
	return datagen.Generate(datagen.Config{Seed: 11, ObjectsPerPatch: 800, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 20})
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run asks the near-neighbour question and one the cluster must refuse.
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
	fmt.Fprintf(out, "catalog: %d objects over a %d-chunk equatorial band\n\n",
		len(cat.Objects), len(cluster.Placement.Chunks()))

	// Near-neighbor joins are the system's most expensive class — submit
	// as a session with a deadline, watching progress while the join runs.
	q, err := cluster.Submit(context.Background(), pairsSQL, qserv.WithDeadline(5*time.Minute))
	if err != nil {
		return err
	}
	res, err := q.Wait(context.Background())
	if err != nil {
		return err
	}
	p := q.Progress()
	fmt.Fprintf(out, "> %s  (session %d, %d/%d chunks)\n", pairsSQL, q.ID(), p.ChunksCompleted, p.ChunksTotal)
	fmt.Fprintf(out, "pairs (including self-pairs): %v\n", res.Rows[0][0])
	fmt.Fprintf(out, "chunk queries dispatched: %d (each ran one join per subchunk,\n", res.ChunksDispatched)
	fmt.Fprintln(out, "plus one against the subchunk's overlap table for border pairs)")

	// The same radius beyond the configured overlap is rejected — the
	// system cannot answer it correctly without data exchange.
	if _, err = cluster.Query(`SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 2.0`); err == nil {
		return fmt.Errorf("a radius beyond the overlap was answered")
	}
	fmt.Fprintf(out, "\nradius beyond overlap correctly rejected: %v\n", err)
	return nil
}
