package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	qserv "repro"
	"repro/internal/datagen"
	"repro/internal/frontend"
	"repro/internal/sphgeom"
)

// workload is one traffic mix. rotations holds one class rotation per
// connection (at most nproc = 2 connections); slots names the three
// classes whose latencies are the q1..q3 end-to-end metrics.
type workload struct {
	name      string
	rotations [][]string
	slots     [3]string
	why       string
}

var lvMix = []string{clsLV1, clsLV2, clsLV1, clsLV3} // LV1 : LV2 : LV3 = 2 : 1 : 1

// Workload names are permanent: later changes are compared on them.
var workloads = []workload{
	{
		name:      "interactive",
		rotations: [][]string{lvMix, lvMix},
		slots:     [3]string{clsLV1, clsLV2, clsLV3},
		why:       "2 connections of LV1:LV2:LV3 = 2:1:1 point and box lookups, one chunk job each: per-query fixed cost is everything, scan and transfer do nothing (q1=LV1 q2=LV2 q3=LV3)",
	},
	{
		name:      "scan-agg",
		rotations: [][]string{{clsHV1, clsHV3, clsSHV1}},
		slots:     [3]string{clsHV1, clsHV3, clsSHV1},
		why:       "1 connection rotating full-sky COUNT, full-sky GROUP BY chunkId and a 10x10 degree near-neighbour join: worker scan and subchunk join dominate, transfer is negligible (q1=HV1 q2=HV3 q3=SHV1)",
	},
	{
		name:      "scan-transfer",
		rotations: [][]string{{clsHV2, clsHV2m, clsHV2s}},
		slots:     [3]string{clsHV2, clsHV2m, clsHV2s},
		why:       "1 connection of full-sky nine-column colour cuts returning 10%, 3% and 0.5% of rows: same scan as scan-agg, dump encode/decode, czar fold and frontend rows dominate (q1=HV2 q2=HV2m q3=HV2s)",
	},
	{
		name:      "mixed",
		rotations: [][]string{{clsHV2}, lvMix},
		slots:     [3]string{clsLV1, clsLV3, clsHV2},
		why:       "connection A streams HV2 back to back while connection B runs the interactive mix (paper Figure 14 on two cores): scheduler, merge gate and runtime under contention (q1=LV1 q2=LV3 q3=HV2)",
	},
	{
		name:  ingestRestart,
		slots: [3]string{"ingest", "restart", "cold_scan"},
		why:   "write side, repeated: fresh durable cluster, CreateTables + Ingest, restart every worker, cold COUNT(*): partitioning, ingest codec, WAL + fsync, materialisation (q1=ingest q2=restart q3=cold scan)",
	},
}

const ingestRestart = "ingest-restart"

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// classesOf lists the distinct classes a workload issues, in first-use order.
func (w workload) classesOf() []string {
	var out []string
	seen := map[string]bool{}
	for _, rot := range w.rotations {
		for _, c := range rot {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// validateCount is how many leading statements of a class are checked
// against the reference before timing: three for single-chunk classes,
// one for full-sky classes (a single-threaded oracle scan costs 0.3-0.5 s).
func validateCount(class string) int {
	if fullSky(class) || class == clsSHV1 {
		return 1
	}
	return 3
}

const maxValidate = 3

// validate runs the leading statements of every class of w through the
// frontend and through the reference (qserv.Oracle; for SHV1 the harness's
// grid count, see neighbourPairs) and compares order-insensitively.
func validate(w workload, s *served, gen *stmtGen, oracle *qserv.Oracle, cat *datagen.Catalog) (checked, mismatched int, first error) {
	c, err := frontend.Dial(s.fe.Addr(), benchUser, benchDB)
	if err != nil {
		return 0, 1, err
	}
	defer c.Close()
	note := func(err error) {
		mismatched++
		if first == nil {
			first = err
		}
	}
	for _, class := range w.classesOf() {
		for k := 0; k < validateCount(class); k++ {
			st := gen.make(class, k)
			checked++
			var got [][]any
			r := runOp(c, st.SQL, &got)
			if r.err != nil {
				note(fmt.Errorf("%s: %w", st.SQL, r.err))
				c.Close()
				if c, err = frontend.Dial(s.fe.Addr(), benchUser, benchDB); err != nil {
					return checked, mismatched + 1, err
				}
				continue
			}
			if r.rows != st.Rows {
				note(fmt.Errorf("%s: %d rows, harness expects %d", st.SQL, r.rows, st.Rows))
				continue
			}
			var want [][]any
			if class == clsSHV1 {
				box := sphgeom.NewBox(st.Box[0], st.Box[2], st.Box[1], st.Box[3])
				want = [][]any{{neighbourPairs(cat, box, shv1Radius)}}
			} else {
				res, err := oracle.Query(st.SQL)
				if err != nil {
					note(fmt.Errorf("oracle: %s: %w", st.SQL, err))
					continue
				}
				want = res.Rows
			}
			if err := sameRows(got, want); err != nil {
				note(fmt.Errorf("%s: %w", st.SQL, err))
			}
		}
	}
	return checked, mismatched, first
}

// sameRows compares two row sets order-insensitively, floats to a relative
// 1e-9 (a distributed SUM adds per-chunk partials in another order).
func sameRows(got, want [][]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	a, b := sortedRows(got), sortedRows(want)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d has %d values, reference has %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return fmt.Errorf("row %d col %d: got %v, reference %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

func sortedRows(rows [][]any) [][]any {
	out := append([][]any(nil), rows...)
	key := func(r []any) string {
		parts := make([]string, len(r))
		for i, v := range r {
			if f, ok := v.(float64); ok {
				parts[i] = fmt.Sprintf("%.6g", f)
			} else {
				parts[i] = fmt.Sprint(v)
			}
		}
		return strings.Join(parts, "|")
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

func sameValue(a, b any) bool {
	fa, aok := asFloat(a)
	fb, bok := asFloat(b)
	if aok && bok {
		if fa == fb {
			return true
		}
		return math.Abs(fa-fb) <= 1e-9*math.Max(math.Abs(fa), math.Abs(fb))
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}
