package worker

import (
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// logger emits the worker's structured events (eviction pressure).
var logger = telemetry.NewLogger("worker")

// workerMetrics are the worker's owned hot-path series; everything else
// (queue depths, residency, chunkstore) is sampled from
// existing accessors at scrape time. All handles are nil-safe, so a
// worker without a registry pays a branch per use.
type workerMetrics struct {
	jobs    *telemetry.Counter
	jobErrs *telemetry.Counter
	queueNS *telemetry.Histogram
	execNS  *telemetry.Histogram
	// stmtsParsed and stmtsReused split the statements jobs executed by
	// whether the job parsed them or bound its dispatch's parse (see txn).
	stmtsParsed *telemetry.Counter
	stmtsReused *telemetry.Counter
	// gangJoins counts the jobs that started in a gang another job led.
	gangJoins *telemetry.Counter
}

// registerMetrics exports this worker into the registry, every series
// labeled worker=<name> so an in-process cluster's workers share one
// registry without colliding.
func (w *Worker) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	name := w.cfg.Name
	w.metrics = workerMetrics{
		jobs:        reg.Counter("qserv_worker_jobs_total", "chunk queries executed", "worker", name),
		jobErrs:     reg.Counter("qserv_worker_job_errors_total", "chunk queries that failed or were canceled", "worker", name),
		queueNS:     reg.Histogram("qserv_worker_queue_wait_ns", "chunk-query queue wait", "worker", name),
		execNS:      reg.Histogram("qserv_worker_exec_ns", "chunk-query execution time", "worker", name),
		stmtsParsed: reg.Counter("qserv_worker_statements_parsed_total", "chunk-query statements parsed and compiled", "worker", name),
		stmtsReused: reg.Counter("qserv_worker_statements_reused_total", "chunk-query statements a job ran from its dispatch's parse, bound to its chunk, without parsing them", "worker", name),
		gangJoins:   reg.Counter("qserv_worker_gang_joins_total", "scan jobs that started in a gang another job led, sharing its read of the chunk", "worker", name),
	}
	reg.GaugeFunc("qserv_worker_queue_depth", "queued chunk queries by lane",
		func() int64 { i, _ := w.QueueLens(); return int64(i) }, "worker", name, "lane", "interactive")
	reg.GaugeFunc("qserv_worker_queue_depth", "queued chunk queries by lane",
		func() int64 { _, s := w.QueueLens(); return int64(s) }, "worker", name, "lane", "scan")
	reg.GaugeFunc("qserv_worker_active_jobs", "chunk queries currently executing",
		func() int64 { return int64(w.ActiveJobs()) }, "worker", name)
	reg.GaugeFunc("qserv_worker_held_jobs", "chunk queries queued, running, or finished and not yet read by the query that wrote them",
		func() int64 { return int64(w.HeldJobs()) }, "worker", name)

	reg.CounterFunc("qserv_worker_materializations_total", "chunk units materialized from segments",
		func() int64 { return w.ResidencyStats().Materializations }, "worker", name)
	reg.CounterFunc("qserv_worker_evictions_total", "chunk units evicted back to segments",
		func() int64 { return w.ResidencyStats().Evictions }, "worker", name)
	reg.GaugeFunc("qserv_worker_resident_bytes", "accounted engine footprint of resident units",
		func() int64 { return w.ResidencyStats().ResidentBytes }, "worker", name)
	if w.store != nil {
		reg.CounterFunc("qserv_chunkstore_wal_fsyncs_total", "WAL fsyncs issued by the commit protocol",
			func() int64 { return w.store.Counters().WALFsyncs }, "worker", name)
		reg.CounterFunc("qserv_chunkstore_seg_writes_total", "segment files written",
			func() int64 { return w.store.Counters().SegWrites }, "worker", name)
		reg.CounterFunc("qserv_chunkstore_quarantines_total", "units quarantined for failing verification",
			func() int64 { return w.store.Counters().Quarantines }, "worker", name)
	}
}

// SetTrace flips per-job span shipping at runtime (tests use it to
// produce partial traces: a worker with tracing off ships no trailer,
// and the czar renders the query's spans without its subtree).
func (w *Worker) SetTrace(on bool) { w.traceOn.Store(on) }

// trailerRoom is what a traced job's result stream leaves free past its
// end for the span trailer jobSpans makes, beside the worker's name: three
// spans and their attributes encode in under 200 bytes. A trailer that
// outgrows it costs a copy of the stream, nothing else.
const trailerRoom = 256

// jobSpans builds the shipped span subtree for one executed job. The
// spans reconstruct from the job's recorded timestamps (not live
// clocks), so the tree is exact regardless of when it is serialized.
func jobSpans(w *Worker, j *job, started, finished time.Time, resultLen int) []*telemetry.Span {
	root := &telemetry.Span{
		Name:    "worker " + w.cfg.Name,
		StartNS: j.queuedAt.UnixNano(),
		EndNS:   finished.UnixNano(),
	}
	root.SetAttr("chunk", int(j.chunk))
	qw := &telemetry.Span{Name: "queue wait", StartNS: j.queuedAt.UnixNano(), EndNS: started.UnixNano()}
	ex := &telemetry.Span{Name: "worker exec", StartNS: started.UnixNano(), EndNS: finished.UnixNano()}
	ex.SetAttr("bytes", resultLen)
	if j.class == core.FullScan {
		ex.SetAttr("gang_joins", j.gangJoins)
	}
	root.Children = []*telemetry.Span{qw, ex}
	return []*telemetry.Span{root}
}

// observeJob records a finished job into the worker's owned series.
func (m *workerMetrics) observeJob(queuedAt, started, finished time.Time, err error) {
	m.jobs.Inc()
	if err != nil {
		m.jobErrs.Inc()
	}
	m.queueNS.Observe(started.Sub(queuedAt).Nanoseconds())
	m.execNS.Observe(finished.Sub(started).Nanoseconds())
}

// traceEnabled reports whether this worker ships span trailers.
func (w *Worker) traceEnabled() bool { return w.traceOn.Load() }
