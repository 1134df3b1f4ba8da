// Command qserv-bench runs the experiments nothing else in the repository
// does, in two groups.
//
// paper: Table 1 and Figures 2-14 of the paper's evaluation (section 6)
// plus the SHV runs, as virtual seconds at the paper's 150-node scale.
// Real chunk queries run on real (scaled-down) synthetic data through the
// full planner/worker pipeline; the reported times come from the
// calibrated cost model of internal/simcluster, whose tests gate the
// shapes — who wins, what grows, where queues form.
//
// live: robustness measurements on a live in-process cluster — a worker
// outage, paging under a memory budget, kill latency, the frontend under a
// connection storm. Every checked query of a live experiment executes: the
// fixture turns the czar result cache off and a cache-served answer counts
// as a failure.
//
// What a query class costs on this implementation is the repository
// benchmark's business (bench/, BENCHMARK.json), not this command's.
//
// Every experiment records the numbers it prints as metrics, and a live
// one records gates: deterministic facts (zero wrong answers, zero copies)
// and absolute bounds. A comparison between two timings is a metric, never
// a verdict.
//
// Usage:
//
//	qserv-bench -list
//	qserv-bench -exp lv1 -objects 100
//	qserv-bench -exp live -objects 5 -json BENCH_smoke.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/simcluster"
	"repro/internal/sqlengine"
)

// experiment is one registry entry; -exp selects by id, by group, or "all".
type experiment struct {
	id, group, title string
	run              func(c *benchCtx) error
}

var experiments = []experiment{
	{"table1", "paper", "Table 1: key catalog tables of the final data release", runTable1},
	{"lv1", "paper", "Figure 2: Low Volume 1 (object retrieval by objectId)", mkLV(1, "~4 s flat")},
	{"lv2", "paper", "Figure 3: Low Volume 2 (time series from Source)", mkLV(2, "~4 s flat")},
	{"lv3", "paper", "Figure 4: Low Volume 3 (spatially-restricted filter)", mkLV(3, "~4 s flat")},
	{"hv1", "paper", "Figure 5: High Volume 1 (full-sky COUNT(*))", mkHV(1, "20-30 s, dispatch-dominated")},
	{"hv2", "paper", "Figure 6: High Volume 2 (full-sky filter scan)", mkHV(2, "150-180 s cached, ~420 s uncached")},
	{"hv3", "paper", "Figure 7: High Volume 3 (density GROUP BY chunkId)", mkHV(3, "faster than HV2 (small results)")},
	{"shv1", "paper", "SHV1 (section 6.2): near-neighbor self-join, 100 deg^2", runSHV1},
	{"shv2", "paper", "SHV2 (section 6.2): sources-not-near-objects join, 150 deg^2", runSHV2},
	{"scale-lv", "paper", "Figures 8-10: LV weak scaling over 40/100/150 nodes", mkScale("flat ~4 s at every node count (Figures 8-10)", 3, 17, "LV1", "LV2", "LV3")},
	{"scale-hv", "paper", "Figure 11: HV weak scaling over 40/100/150 nodes", mkScale("HV1/HV3 grow ~linearly with chunk count; HV2 ~flat (Figure 11)", 1, 17, "HV1", "HV2", "HV3")},
	{"scale-shv", "paper", "Figures 12-13: SHV weak scaling over 40/100/150 nodes", mkScale("imperfect scaling, non-monotonic at 100 nodes (Figures 12-13)", 1, 23, "SHV1", "SHV2")},
	{"concurrency", "paper", "Figure 14: 2xHV2 + LV1 stream + LV2 stream", runConcurrency},
	{"outage", "live", "worker outage under load: detect, fail over, re-replicate — against a durable restart", runOutage},
	{"paging", "live", "larger-than-RAM workers: lazy materialization + eviction under a memory budget", runPaging},
	{"kill-latency", "live", "Cancel() to worker-slot reclamation", runKillLatency},
	{"frontend", "live", "connection-scale frontend: 1k-connection storm, admission shedding", runFrontend},
}

// benchGate is one verdict inside an experiment's record.
type benchGate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// benchRecord is one experiment's machine-readable outcome (-json).
type benchRecord struct {
	Experiment string             `json:"experiment"`
	Group      string             `json:"group"`
	Title      string             `json:"title"`
	OK         bool               `json:"ok"`
	Error      string             `json:"error,omitempty"`
	Seconds    float64            `json:"seconds"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Gates      []benchGate        `json:"gates,omitempty"`
}

// benchEnvelope is the -json file format: the generation parameters
// pinned alongside the records so a record is comparable across runs.
type benchEnvelope struct {
	Schema    int           `json:"schema"`
	Generated string        `json:"generated"`
	Objects   int           `json:"objects"`
	Seed      int64         `json:"seed"`
	Records   []benchRecord `json:"records"`
}

// benchCtx is what an experiment runs against: the output, the size flags,
// the record it fills, and the simulated cluster the paper group shares.
type benchCtx struct {
	out     io.Writer
	objects int
	seed    int64
	conns   int
	cur     *benchRecord

	once sync.Once
	sim  *simcluster.Cluster
	err  error
}

func (c *benchCtx) printf(format string, args ...any) { fmt.Fprintf(c.out, format, args...) }

// metric records one named measurement of the running experiment.
func (c *benchCtx) metric(name string, v float64) {
	if c.cur.Metrics == nil {
		c.cur.Metrics = map[string]float64{}
	}
	c.cur.Metrics[name] = v
}

// gate records one verdict of the running experiment; the runner fails the
// experiment when any gate did not pass.
func (c *benchCtx) gate(name string, pass bool, format string, args ...any) {
	c.cur.Gates = append(c.cur.Gates, benchGate{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// cluster lazily builds the 150-node simulated cluster of the paper group.
func (c *benchCtx) cluster() (*simcluster.Cluster, error) {
	c.once.Do(func() {
		c.printf("# building 150-node simulated cluster (paper geometry, %d objects/patch)...\n", c.objects)
		cat, err := datagen.Generate(
			datagen.Config{Seed: c.seed, ObjectsPerPatch: c.objects, MeanSourcesPerObject: 2},
			datagen.DefaultDuplicateConfig(),
		)
		if err != nil {
			c.err = err
			return
		}
		c.sim, c.err = simcluster.New(simcluster.PaperConfig(), cat)
		if c.err == nil {
			c.printf("# loaded: %d objects, %d sources, %d chunks on 150 nodes\n\n",
				len(cat.Objects), len(cat.Sources), len(c.sim.PlacedChunks()))
		}
	})
	return c.sim, c.err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it returns the exit status, 0 only when every
// selected experiment ran without error and passed all of its gates. The
// records of everything that ran are written to -json either way.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("qserv-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	exp := fs.String("exp", "all", "experiment id, group (paper, live) or 'all'")
	list := fs.Bool("list", false, "list experiment ids")
	objects := fs.Int("objects", 60, "synthetic objects per PT1.1 patch")
	seed := fs.Int64("seed", 1, "data generation seed")
	jsonPath := fs.String("json", "", "write machine-readable benchmark records to this JSON path")
	conns := fs.Int("conns", 1000, "concurrent connections in the frontend storm")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range experiments {
			fmt.Fprintf(out, "%-13s %-6s %s\n", e.id, e.group, e.title)
		}
		return 0
	}

	c := &benchCtx{out: out, objects: *objects, seed: *seed, conns: *conns}
	var records []benchRecord
	failed := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id && *exp != e.group {
			continue
		}
		c.printf("==== %s — %s ====\n", e.id, e.title)
		rec := benchRecord{Experiment: e.id, Group: e.group, Title: e.title}
		c.cur = &rec
		t0 := time.Now()
		err := e.run(c)
		rec.Seconds = time.Since(t0).Seconds()
		for _, g := range rec.Gates {
			if !g.Pass && err == nil {
				err = fmt.Errorf("gate %s failed: %s", g.Name, g.Detail)
			}
		}
		if rec.OK = err == nil; rec.OK {
			c.printf("  RESULT: ok (%d metrics, %d gates)\n\n", len(rec.Metrics), len(rec.Gates))
		} else {
			rec.Error = err.Error()
			failed++
			c.printf("  RESULT: FAIL — %v\n\n", err)
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		fmt.Fprintf(out, "unknown experiment %q (use -list)\n", *exp)
		return 2
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, benchEnvelope{
			Schema:    1,
			Generated: time.Now().UTC().Format(time.RFC3339),
			Objects:   *objects,
			Seed:      *seed,
			Records:   records,
		}); err != nil {
			fmt.Fprintf(out, "qserv-bench: %v\n", err)
			return 1
		}
		c.printf("# wrote %d record(s) to %s\n", len(records), *jsonPath)
	}
	if failed > 0 {
		fmt.Fprintf(out, "qserv-bench: %d of %d experiment(s) failed\n", failed, len(records))
		return 1
	}
	return 0
}

func writeJSON(path string, env benchEnvelope) error {
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal -json records: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// renderRows renders result rows to canonical strings; unordered results
// are sorted so comparison is order-insensitive. It accepts both the
// public API's rows ([]qserv.Row) and client rows.
func renderRows[R ~[]any](rows []R, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = sqlengine.FormatValue(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// percentile returns the pth nearest-rank percentile of ds.
func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
