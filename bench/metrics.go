package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricSpec is one entry of BENCHMARK.json. The lists below are the
// single source of the names the harness prints; stats_test.go checks
// that BENCHMARK.json agrees with them.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics: every workload reports every one of
// them (the driver's contract), so they are named by slot, not by class.
// q1..q3 are client-side latencies, send to last frame, successful
// operations only, of the three classes the workload names in its slots.
// They are the 10th percentile, not the median: on the shared 2-vCPU host
// this was sized on, neighbours slow a run in sub-second bursts, which
// moved a class's median by 25 % between identical runs and its 10th
// percentile by 4 %. Medians and tails are per-layer diagnostics.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "resident_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "q1_p10_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "q2_p10_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "q3_p10_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// gatedPercentile is the percentile q1..q3 report.
const gatedPercentile = 10

// slotMetric names the gated latency of slot i (0-based).
func slotMetric(i int) string { return fmt.Sprintf("q%d_p%d_ms", i+1, gatedPercentile) }

// exactCounts are the traced run's metrics that must repeat exactly on one
// seed: they count bytes and operations of the seed's own data. (Counts
// taken over the timed phase, such as czar.chunks_per_query, depend on how
// many statements of each class the phase completed, and do not.)
var exactCounts = map[string]bool{
	"disk_bytes_per_row":      true,
	"ingest.bytes_per_row":    true,
	"worker.materializations": true,
	"chunkstore.wal_fsyncs":   true,
	"chunkstore.seg_writes":   true,
}

// value is one printed measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	attempted int64
	failed    int64
	correct   bool
	metrics   map[string]value // the contract's metrics for this trace mode
	detail    []string         // human-readable lines printed before the JSON line
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]value{}
	}
	r.metrics[name] = value{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

// jsonLine renders the contract's last line.
func (r *result) jsonLine() string {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only floats, strings and ints: cannot fail unless a value is NaN, a harness bug
	}
	return string(b)
}

func (r *result) sortedNames() []string {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// perLayer are the traced run's metrics: first the class-named figures of
// the whole stack (the paper's query classes; a workload that does not
// issue a class reports 0 for it), then one group per layer, named after
// the module whose public function the harness timed or whose counter it
// read. They carry no bound. A traced run prints every one of them; a
// metric that does not apply to the workload reads 0.
var perLayer = []metricSpec{
	{Name: "lv1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lv1_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "lv2_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lv3_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lv_qps", Unit: "1/s", Better: "higher"},
	{Name: "hv1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hv3_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shv1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "scan_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "hv2_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hv2m_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hv2s_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "first_row_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_krows_per_s", Unit: "krows/s", Better: "higher"},
	{Name: "restart_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cold_scan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "disk_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "planopt.route_us", Unit: "us", Better: "lower"},
	{Name: "planopt.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "meta.index_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "qcache.miss_put_us", Unit: "us", Better: "lower"},
	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "xrd.local_rtt_us", Unit: "us", Better: "lower"},
	{Name: "xrd.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "xrd.local_rtt_100k_us", Unit: "us", Better: "lower"},
	{Name: "xrd.tcp_rtt_100k_us", Unit: "us", Better: "lower"},
	{Name: "xrd.dial_failures", Unit: "count", Better: "lower"},

	{Name: "czar.dispatch_fold_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "czar.chunks_per_query", Unit: "count", Better: "lower"},
	{Name: "czar.retries", Unit: "count", Better: "lower"},

	{Name: "worker.job_us", Unit: "us", Better: "lower"},
	{Name: "worker.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "worker.exec_us", Unit: "us", Better: "lower"},
	{Name: "worker.scan_lane_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed.lv3_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed.lv3_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed.lv_qps", Unit: "1/s", Better: "higher"},

	{Name: "sqlengine.exec_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.scan_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "sqlengine.allocs_per_krow", Unit: "allocs/krow", Better: "lower"},
	{Name: "worker.subchunk_build_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.join_us_per_subchunk", Unit: "us", Better: "lower"},
	{Name: "scanshare.convoy_joins", Unit: "count", Better: "higher"},
	{Name: "scanshare.bytes_read", Unit: "B", Better: "lower"},

	{Name: "dump.encode_us_per_krow", Unit: "us/krow", Better: "lower"},
	{Name: "dump.decode_us_per_krow", Unit: "us/krow", Better: "lower"},
	{Name: "dump.bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "dump.allocs_per_krow", Unit: "allocs/krow", Better: "lower"},
	{Name: "frontend.write_us_per_krow", Unit: "us/krow", Better: "lower"},
	{Name: "frontend.rtt_us", Unit: "us", Better: "lower"},

	{Name: "partition.locate_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.encode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "ingest.decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "ingest.bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "worker.load_us_per_krow", Unit: "us/krow", Better: "lower"},
	{Name: "chunkstore.append_us", Unit: "us", Better: "lower"},
	{Name: "chunkstore.wal_fsyncs", Unit: "count", Better: "lower"},
	{Name: "chunkstore.seg_writes", Unit: "count", Better: "lower"},
	{Name: "chunkstore.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "worker.materializations", Unit: "count", Better: "lower"},
	{Name: "worker.materialize_ms_per_unit", Unit: "ms", Better: "lower"},

	{Name: "frontend.preflight_mismatches", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage_ratio", Unit: "ratio", Better: "higher"},
	{Name: "share.worker", Unit: "ratio", Better: "lower"},
	{Name: "share.sqlengine", Unit: "ratio", Better: "lower"},
	{Name: "share.transfer", Unit: "ratio", Better: "lower"},
	{Name: "bench.generator_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.alloc_mb_per_q3", Unit: "MB", Better: "lower"},
}

// checkEndToEnd verifies an untraced result carries exactly the endToEnd
// metrics, none of them zero.
func (r *result) checkEndToEnd() error {
	if len(r.metrics) != len(endToEnd) {
		return fmt.Errorf("untraced run reports %d metrics, BENCHMARK.json has %d", len(r.metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		v, ok := r.metrics[m.Name]
		if !ok || v.Unit != m.Unit || v.Value <= 0 {
			return fmt.Errorf("untraced run: metric %s missing, zero or in the wrong unit (%+v)", m.Name, v)
		}
	}
	return nil
}

// fillPerLayer makes a traced result carry exactly the perLayer metrics:
// the ones the workload has no figure for read 0.
func (r *result) fillPerLayer() {
	known := map[string]string{}
	for _, m := range perLayer {
		known[m.Name] = m.Unit
		if _, ok := r.metrics[m.Name]; !ok {
			r.set(m.Name, 0, m.Unit)
		}
	}
	for name, v := range r.metrics {
		unit, ok := known[name]
		if !ok || unit != v.Unit {
			panic(fmt.Sprintf("bench: traced run set %q (%s), which BENCHMARK.json's per_layer list does not have", name, v.Unit))
		}
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []layerSpec  `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 12,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, nameWhy{w.name, w.why})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerSpec{m.Name, m.Unit, m.Better})
	}
	return f
}
