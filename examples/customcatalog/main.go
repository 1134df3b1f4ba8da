// Custom catalog: a non-LSST schema defined purely through the public
// declarative spec API — no internal packages, no hand-rolled loaders.
//
// The catalog is a global sensor network: Station is the director
// table (spatially partitioned by longitude/latitude, keyed by
// stationId), Reading is its child time-series table (each reading is
// stored in the chunk holding its station, so station-key joins and
// dives never cross nodes), and SensorKind is a small replicated
// dimension table. The same czar/worker/fabric path that serves the
// paper's astronomy workload answers distributed queries over it, and
// every answer is checked against a single-node oracle built from the
// identical spec and rows.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"strings"

	"repro"
)

func sensorSpec() qserv.CatalogSpec {
	return qserv.CatalogSpec{
		Database: "sensors",
		Tables: []qserv.TableSpec{
			{
				Name: "Station",
				Kind: qserv.Director,
				Columns: []qserv.ColumnSpec{
					{Name: "stationId", Type: qserv.Integer},
					{Name: "lon", Type: qserv.Double},
					{Name: "lat", Type: qserv.Double},
					{Name: "elevation", Type: qserv.Double},
					{Name: "kindId", Type: qserv.Integer},
				},
				RAColumn:    "lon",
				DeclColumn:  "lat",
				DirectorKey: "stationId",
				Overlap:     true,
			},
			{
				Name: "Reading",
				Kind: qserv.Child,
				Columns: []qserv.ColumnSpec{
					{Name: "readingId", Type: qserv.Integer},
					{Name: "stationId", Type: qserv.Integer},
					{Name: "t", Type: qserv.Double},
					{Name: "value", Type: qserv.Double},
				},
				Director:    "Station",
				DirectorKey: "stationId",
			},
			{
				Name: "SensorKind",
				Kind: qserv.Replicated,
				Columns: []qserv.ColumnSpec{
					{Name: "kindId", Type: qserv.Integer},
					{Name: "kindName", Type: qserv.Text},
				},
			},
		},
	}
}

// synthesize builds a deterministic sensor network: stations uniform
// over the sphere, each with a diurnal temperature-like time series.
func synthesize() (stations, readings, kinds []qserv.Row) {
	rng := rand.New(rand.NewSource(7))
	const nStations = 400
	var readingID int64 = 1
	for id := int64(1); id <= nStations; id++ {
		lon := rng.Float64() * 360
		latDeg := math.Asin(2*rng.Float64()-1) * 180 / math.Pi
		kind := int64(rng.Intn(3))
		stations = append(stations, qserv.Row{id, lon, latDeg, 10 + rng.Float64()*2500, kind})
		n := 5 + rng.Intn(10)
		for k := 0; k < n; k++ {
			t := float64(k) + rng.Float64()
			val := 15 + 10*math.Sin(2*math.Pi*t) + rng.NormFloat64()
			readings = append(readings, qserv.Row{readingID, id, t, val})
			readingID++
		}
	}
	kinds = []qserv.Row{
		{int64(0), "temperature"},
		{int64(1), "pressure"},
		{int64(2), "humidity"},
	}
	return stations, readings, kinds
}

// workers sizes the example's cluster; queries are the statements it asks,
// each of one answer or in a stated order, so that an answer is compared
// row for row.
const workers = 4

var queries = []string{
	"SELECT COUNT(*) AS n FROM Station",
	"SELECT COUNT(*) AS n FROM Reading",
	"SELECT COUNT(*) AS n, AVG(elevation) AS elev FROM Station WHERE qserv_areaspec_box(30, -25, 90, 25)",
	"SELECT kindId, COUNT(*) AS n FROM Station GROUP BY kindId ORDER BY kindId",
	"SELECT AVG(value) AS mean, COUNT(*) AS n FROM Reading WHERE stationId = 123",
	"SELECT stationId, lat FROM Station ORDER BY lat DESC, stationId LIMIT 5",
}

// config is the configuration of the example's cluster and of its oracle.
func config() qserv.ClusterConfig {
	cfg := qserv.DefaultClusterConfig(workers)
	cfg.Database = "sensors"
	return cfg
}

// loadOracle builds the single-node oracle: the same spec and the same
// rows, in one plain engine.
func loadOracle() (*qserv.Oracle, error) {
	stations, readings, kinds := synthesize()
	oracle, err := qserv.NewOracle(config())
	if err != nil {
		return nil, err
	}
	if err := oracle.CreateTables(sensorSpec()); err != nil {
		return nil, err
	}
	for _, tb := range []struct {
		name string
		rows []qserv.Row
	}{{"Station", stations}, {"Reading", readings}, {"SensorKind", kinds}} {
		if err := oracle.Ingest(tb.name, qserv.RowsOf(tb.rows)); err != nil {
			return nil, err
		}
	}
	return oracle, nil
}

// render is a row as the example prints and compares it: its cells
// joined by "|", each float to nine significant digits, which a sum the
// cluster adds up in another order than the oracle still agrees to.
func render(r qserv.Row) string {
	parts := make([]string, len(r))
	for j, v := range r {
		switch x := v.(type) {
		case float64:
			parts[j] = fmt.Sprintf("%.9g", x)
		default:
			parts[j] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, "|")
}

// printAnswer prints a statement and the first rows of its answer.
func printAnswer(out io.Writer, sql string, rows []qserv.Row) {
	fmt.Fprintf(out, "> %s\n", sql)
	for i, r := range rows {
		if i >= 5 {
			fmt.Fprintf(out, "  ... (%d rows)\n", len(rows))
			break
		}
		fmt.Fprintf(out, "  %s\n", render(r))
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run ingests the catalog into a cluster, asks it every query, holds each
// answer to the oracle's row for row, and prints it.
func run(out io.Writer) error {
	spec := sensorSpec()
	if err := spec.Validate(); err != nil {
		return err
	}
	stations, readings, kinds := synthesize()

	cluster, err := qserv.NewCluster(config())
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := cluster.CreateTables(spec); err != nil {
		return err
	}
	// Director first (children are placed by its key), then the rest.
	st, err := cluster.Ingest("Station", qserv.RowsOf(stations))
	if err != nil {
		return err
	}
	rd, err := cluster.Ingest("Reading", qserv.RowsOf(readings))
	if err != nil {
		return err
	}
	if _, err := cluster.Ingest("SensorKind", qserv.RowsOf(kinds)); err != nil {
		return err
	}
	fmt.Fprintf(out, "ingested %d stations over %d chunks (+%d overlap copies) and %d readings in %d fabric batches\n\n",
		st.Rows, st.Chunks, st.OverlapRows, rd.Rows, st.Batches+rd.Batches)

	oracle, err := loadOracle()
	if err != nil {
		return err
	}
	for _, sql := range queries {
		got, err := cluster.Query(sql)
		if err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", sql, err)
		}
		if len(got.Rows) != len(want.Rows) {
			return fmt.Errorf("%s: %d rows, oracle has %d", sql, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if g, w := render(got.Rows[i]), render(want.Rows[i]); g != w {
				return fmt.Errorf("%s: row %d differs:\n  cluster: %s\n  oracle:  %s", sql, i, g, w)
			}
		}
		printAnswer(out, sql, got.Rows)
		fmt.Fprintf(out, "  [%d chunk queries; oracle-identical]\n\n", got.ChunksDispatched)
	}
	fmt.Fprintln(out, "all answers oracle-identical — the spec API ran a non-LSST catalog through the full distributed path")
	return nil
}
