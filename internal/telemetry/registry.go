// Package telemetry is the cluster's observability substrate: a
// low-overhead metrics registry exported in Prometheus text format, a
// per-query distributed-tracing span tree, a bounded trace ring behind
// SHOW PROFILE, a leveled structured logger, and an admin HTTP listener
// serving /metrics and net/http/pprof.
//
// Every API in the package is nil-receiver safe: a subsystem holds
// plain *Registry / *Span / *Logger fields and calls through them
// unconditionally; when telemetry is disabled the pointers are nil and
// each call is a single predictable branch. That is what keeps the
// instrumented hot paths within the overhead budget.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (callers keep counters monotone; negative deltas are a
// caller bug the exposition will faithfully display).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (possibly negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets bounds a histogram: power-of-two upper bounds 2^0..2^(n-2)
// plus a +Inf overflow bucket. 44 finite buckets cover 1ns..~2.4h when
// observing nanoseconds, and 1B..8TiB when observing bytes.
const histBuckets = 45

// Histogram counts observations in power-of-two buckets; bucket i holds
// values v with v <= 2^i, the last bucket is +Inf. Observation is two
// atomic adds and a bit scan — cheap enough for per-chunk hot paths.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// bucketIndex returns the first power-of-two bucket holding v.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(v - 1)) // first i with 2^i >= v
	if idx >= histBuckets-1 {
		return histBuckets - 1 // +Inf overflow
	}
	return idx
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; 0 on a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper bound for quantile q (0..1) from the bucket
// boundaries: the upper bound of the first bucket whose cumulative
// count reaches q of the total. 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == histBuckets-1 {
				return math.MaxInt64
			}
			return int64(1) << uint(i)
		}
	}
	return math.MaxInt64
}

// metricKind discriminates exposition rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered series: a name, optional labels, and exactly
// one of the value holders.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels string // rendered {k="v",...} or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() int64
}

// Registry holds the cluster's metric series. All lookup/registration
// methods are get-or-create and safe for concurrent use; the returned
// metric handles are lock-free. A nil *Registry is a valid "telemetry
// off" registry: every method returns a nil handle whose operations are
// no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order of keys, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// renderLabels turns variadic "key, value, key, value" pairs into the
// canonical exposition label block. Odd trailing keys are dropped.
func renderLabels(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", kv[i], kv[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// register returns the metric for key name+labels, creating it via mk
// on first use. Kind mismatches on the same key return the existing
// metric (callers share handles; mismatched re-registration is a bug
// that surfaces as a nil typed handle).
func (r *Registry) register(name, help string, kind metricKind, kv []string, mk func(*metric)) *metric {
	labels := renderLabels(kv)
	key := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels}
	mk(m)
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter returns the named counter, creating it on first use. Labels
// are "key, value" pairs; the same name may carry different label sets
// (one series each).
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounter, kv, func(m *metric) { m.ctr = &Counter{} })
	return m.ctr
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindGauge, kv, func(m *metric) { m.gauge = &Gauge{} })
	return m.gauge
}

// Histogram returns the named power-of-two-bucket histogram, creating
// it on first use.
func (r *Registry) Histogram(name, help string, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindHistogram, kv, func(m *metric) { m.hist = &Histogram{} })
	return m.hist
}

// CounterFunc registers a counter series whose value is sampled from fn
// at exposition time. Use it to export counters a subsystem already
// maintains (qcache hits, materializations, admission sheds) without
// touching its hot path. fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() int64, kv ...string) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounterFunc, kv, func(m *metric) { m.fn = fn })
}

// GaugeFunc registers a gauge series sampled from fn at exposition
// time (queue depths, cache entry counts, residency).
func (r *Registry) GaugeFunc(name, help string, fn func() int64, kv ...string) {
	if r == nil {
		return
	}
	r.register(name, help, kindGaugeFunc, kv, func(m *metric) { m.fn = fn })
}

// Value returns the current value of the named series (labels rendered
// into the key exactly as registered); ok is false when absent.
// Histograms report their observation count.
func (r *Registry) Value(name string, kv ...string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	key := name + renderLabels(kv)
	r.mu.Lock()
	m := r.metrics[key]
	r.mu.Unlock()
	if m == nil {
		return 0, false
	}
	switch m.kind {
	case kindCounter:
		return m.ctr.Value(), true
	case kindGauge:
		return m.gauge.Value(), true
	case kindHistogram:
		return m.hist.Count(), true
	default:
		return m.fn(), true
	}
}

// snapshot copies the metric list under the lock; values are read
// outside it (they are atomics or caller-supplied funcs).
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, r.metrics[key])
	}
	return out
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): "# HELP"/"# TYPE" headers grouped per metric name,
// histograms expanded into _bucket{le=...}/_sum/_count series. Series
// sort by name then labels, so output is diffable across scrapes.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	ms := r.snapshot()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	var sb strings.Builder
	lastName := ""
	for _, m := range ms {
		if m.name != lastName {
			if m.help != "" {
				fmt.Fprintf(&sb, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " "))
			}
			fmt.Fprintf(&sb, "# TYPE %s %s\n", m.name, m.kind.promType())
			lastName = m.name
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s%s %d\n", m.name, m.labels, m.ctr.Value())
		case kindGauge:
			fmt.Fprintf(&sb, "%s%s %d\n", m.name, m.labels, m.gauge.Value())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&sb, "%s%s %d\n", m.name, m.labels, m.fn())
		case kindHistogram:
			writePromHistogram(&sb, m)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writePromHistogram expands one histogram into cumulative _bucket
// series plus _sum and _count. Empty finite buckets above the highest
// observation are elided (the +Inf bucket always closes the series).
func writePromHistogram(sb *strings.Builder, m *metric) {
	inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
	leLabel := func(le string) string {
		if inner == "" {
			return fmt.Sprintf(`{le=%q}`, le)
		}
		return fmt.Sprintf(`{%s,le=%q}`, inner, le)
	}
	var cum int64
	top := 0
	for i := 0; i < histBuckets; i++ {
		if m.hist.buckets[i].Load() > 0 {
			top = i
		}
	}
	for i := 0; i <= top && i < histBuckets-1; i++ {
		cum += m.hist.buckets[i].Load()
		fmt.Fprintf(sb, "%s_bucket%s %d\n", m.name, leLabel(fmt.Sprintf("%d", int64(1)<<uint(i))), cum)
	}
	fmt.Fprintf(sb, "%s_bucket%s %d\n", m.name, leLabel("+Inf"), m.hist.count.Load())
	fmt.Fprintf(sb, "%s_sum%s %d\n", m.name, m.labels, m.hist.sum.Load())
	fmt.Fprintf(sb, "%s_count%s %d\n", m.name, m.labels, m.hist.count.Load())
}

// Exposition renders the registry to a byte slice (WriteProm into
// memory); nil registry renders empty.
func (r *Registry) Exposition() []byte {
	var sb strings.Builder
	_ = r.WriteProm(&sb)
	return []byte(sb.String())
}
