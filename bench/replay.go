package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/czar"
	"repro/internal/dump"
	"repro/internal/partition"
	"repro/internal/planopt"
	"repro/internal/qcache"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// This file is the traced run of the query workloads. The product is not
// instrumented by this benchmark, so per-layer numbers come from outside:
// the harness continues the workload's own statement sequence (re-issuing
// an executed statement would be answered from the workers'
// content-addressed result store and the czar's result cache) and calls
// each layer's public functions on those statements, one at a time, with
// a span around every call.

// replayCount is how many statements of a class the replay covers: the
// single-chunk classes are cheap, a full-sky statement replays 94 chunk
// jobs serially.
func replayCount(class string) int {
	if fullSky(class) || class == clsSHV1 {
		return 2
	}
	return 200
}

// spanRouter wraps the routing tier so that planopt.Route shows up as a
// child span of core.Plan, which calls it.
type spanRouter struct {
	inner  core.Router
	tr     *tracer
	parent int
	req    int64
	took   time.Duration
}

func (r *spanRouter) Route(a *core.Analysis, placed []partition.ChunkID) (out core.Route) {
	r.took = r.tr.timed("planopt.route", r.parent, r.req, func() { out = r.inner.Route(a, placed) })
	return out
}

// cannedWorkers is the fabric handler of the zero-cost workers: it accepts
// any chunk query and answers result reads with the bytes a real worker
// produced for the same payload earlier in the replay.
type cannedWorkers struct {
	mu      sync.RWMutex
	results map[string][]byte // result path -> dump bytes (trace trailer included)
}

func (c *cannedWorkers) HandleWrite(string, []byte) error { return nil }

func (c *cannedWorkers) HandleRead(path string) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	data, ok := c.results[path]
	if !ok {
		return nil, fmt.Errorf("canned worker: no result for %s", path)
	}
	return data, nil
}

func (c *cannedWorkers) put(path string, data []byte) {
	c.mu.Lock()
	c.results[path] = data
	c.mu.Unlock()
}

func (c *cannedWorkers) reset() {
	c.mu.Lock()
	c.results = map[string][]byte{}
	c.mu.Unlock()
}

// stubCzar assembles a czar like the cluster's own (same registry, index,
// placement, routing tier, result cache, tracing) over canned workers.
func stubCzar(s *served, canned *cannedWorkers) *czar.Czar {
	cl := s.cl
	red := xrd.NewRedirector()
	for _, name := range cl.WorkerNames() {
		var keys []string
		for _, c := range cl.Placement.ChunksOn(name) {
			keys = append(keys, xrd.QueryPath(int(c)))
		}
		red.Register(xrd.NewLocalEndpoint(name, canned), keys...)
	}
	ccfg := czar.DefaultConfig("czar-replay")
	ccfg.MergeParallelism = cl.Config.MergeParallelism
	ccfg.TopKPushdown = cl.Config.TopKPushdown
	cz := czar.New(ccfg, cl.Registry, cl.Index, cl.Placement, red)
	cz.SetTelemetry(czar.Telemetry{Metrics: telemetry.NewRegistry(), Trace: true, Ring: telemetry.NewTraceRing(128)})
	cz.SetRouter(planopt.New(cl.Registry, cl.Index, cl.Stats, planopt.Config{Pruning: cl.Config.ChunkPruning}))
	cz.SetResultCache(qcache.New(cl.Config.ResultCacheBytes))
	return cz
}

// classCost is one class's replayed layer costs, nanoseconds per
// statement (chunk-level costs summed over the statement's chunk jobs).
type classCost struct {
	n       int
	parse   []float64
	plan    []float64 // core.Plan including the route it calls
	route   []float64
	cache   []float64
	czar    []float64 // stub-czar query on one P
	jobs    []float64
	exec    []float64
	encode  []float64
	decode  []float64
	chunks  []float64
	rows    []float64 // rows of the final answer
	pruned  []float64 // chunks pruned / chunks placed
	perJob  []float64 // every chunk job, ns
	perExec []float64 // every chunk statement execution, ns

	scanned, chunkRows, chunkBytes int64
	subchunks                      int64   // SHV1: subchunks covered by the replayed jobs
	buildOnly                      float64 // SHV1: ns of the build-only jobs, summed
}

// replayer holds what the replay needs of the served cluster.
type replayer struct {
	s       *served
	tr      *tracer
	gen     *stmtGen
	canned  *cannedWorkers
	stub    *czar.Czar
	cache   *qcache.Cache
	cost    map[string]*classCost
	bigCols []string // largest final answer seen: the frontend layer streams its shape
	bigRows []sqlengine.Row
	req     int64
}

func newReplayer(s *served, tr *tracer, gen *stmtGen) *replayer {
	canned := &cannedWorkers{results: map[string][]byte{}}
	return &replayer{
		s: s, tr: tr, gen: gen, canned: canned,
		stub:  stubCzar(s, canned),
		cache: qcache.New(s.cl.Config.ResultCacheBytes),
		cost:  map[string]*classCost{},
	}
}

func (r *replayer) close() { r.stub.Close() }

// statement replays one statement through every query-side layer.
func (r *replayer) statement(st stmt) error {
	cl := r.s.cl
	cc := r.cost[st.Class]
	if cc == nil {
		cc = &classCost{}
		r.cost[st.Class] = cc
	}
	r.req++
	req := r.req
	root := r.tr.start("replay."+st.Class, 0, req)
	defer r.tr.end(root)

	var sel *sqlparse.Select
	var err error
	parse := r.tr.timed("sqlparse.parse", root, req, func() { sel, err = sqlparse.ParseSelect(st.SQL) })
	if err != nil {
		return err
	}

	planner := core.NewPlanner(cl.Registry, cl.Index)
	planner.TopK = cl.Config.TopKPushdown
	placed := cl.Placement.Chunks()
	planSpan := r.tr.start("core.plan", root, req)
	router := &spanRouter{
		inner: planopt.New(cl.Registry, cl.Index, cl.Stats, planopt.Config{Pruning: cl.Config.ChunkPruning}),
		tr:    r.tr, parent: planSpan, req: req,
	}
	planner.Router = router
	plan, err := planner.Plan(sel, placed)
	planTook := r.tr.end(planSpan)
	if err != nil {
		return err
	}

	// Worker side: every chunk job for real, one at a time, then the same
	// work again layer by layer on what the job returned.
	ctx := context.Background()
	var jobs, exec, encode, decode float64
	r.canned.reset()
	for _, chunk := range plan.Chunks {
		cq := plan.QueryFor(chunk)
		payload := cq.Payload()
		w := cl.WorkerByName(cl.Placement.Workers(chunk)[0])
		data, took, err := runJob(ctx, r.tr, root, req, w, chunk, payload)
		if err != nil {
			return err
		}
		jobs += float64(took)
		cc.perJob = append(cc.perJob, float64(took))
		r.canned.put(xrd.ResultPath(payload), data)

		stripped, _ := telemetry.ExtractTrailer(data)
		var dec *dump.Decoded
		decode += float64(r.tr.timed("dump.decode", root, req, func() { dec, err = dump.Decode(string(stripped)) }))
		if err != nil {
			return err
		}
		back := &sqlengine.Result{Cols: dec.Schema.Names(), Rows: dec.Rows}
		for _, c := range dec.Schema {
			back.Types = append(back.Types, c.Type)
		}
		encode += float64(r.tr.timed("dump.encode", root, req, func() { _ = dump.Dump(dec.Name, back) }))
		cc.chunkRows += int64(len(dec.Rows))
		cc.chunkBytes += int64(len(stripped))

		if len(cq.SubChunks) > 0 {
			// Subchunk tables exist only inside a job; the engine cannot be
			// driven alone. Price the build with a job that builds the same
			// subchunk tables and then does next to nothing.
			build := cq
			build.Statements = buildOnlyStatements(cq)
			if _, took, err := runJob(ctx, r.tr, root, req, w, chunk, build.Payload()); err == nil {
				cc.buildOnly += float64(took)
			} else {
				return fmt.Errorf("build-only job: %w", err)
			}
			cc.subchunks += int64(len(cq.SubChunks))
			continue
		}
		stmts, err := sqlparse.ParseScript(string(payload))
		if err != nil {
			return err
		}
		for _, s := range stmts {
			if _, ok := s.(*sqlparse.Select); !ok {
				continue
			}
			var res *sqlengine.Result
			took := r.tr.timed("sqlengine.exec", root, req, func() { res, err = w.Engine().ExecuteStmt(s) })
			if err != nil {
				return err
			}
			exec += float64(took)
			cc.perExec = append(cc.perExec, float64(took))
			cc.scanned += res.Stats.RowsScanned
		}
	}

	// Czar side: the same statement through a czar whose workers cost
	// nothing, on one P so that its wall time is its work.
	var qr *czar.QueryResult
	prev := runtime.GOMAXPROCS(1)
	czarTook := r.tr.timed("czar.query", root, req, func() { qr, err = r.stub.Query(st.SQL) })
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return fmt.Errorf("stub czar: %w", err)
	}
	if int64(len(qr.Rows)) != st.Rows {
		return fmt.Errorf("stub czar returned %d rows for %s, want %d", len(qr.Rows), st.SQL, st.Rows)
	}
	key := plan.CacheKey()
	cache := r.tr.timed("qcache.miss_put", root, req, func() {
		r.cache.Get(key, 0, "")
		r.cache.Put(key, 0, "", qcache.Result{Cols: qr.Cols, Types: qr.Types, Rows: qr.Rows})
	})
	if len(qr.Rows) > len(r.bigRows) {
		r.bigCols, r.bigRows = qr.Cols, qr.Rows
	}

	cc.n++
	cc.parse = append(cc.parse, float64(parse))
	cc.plan = append(cc.plan, float64(planTook))
	cc.route = append(cc.route, float64(router.took))
	cc.cache = append(cc.cache, float64(cache))
	cc.czar = append(cc.czar, float64(czarTook))
	cc.jobs = append(cc.jobs, jobs)
	cc.exec = append(cc.exec, exec)
	cc.encode = append(cc.encode, encode)
	cc.decode = append(cc.decode, decode)
	cc.chunks = append(cc.chunks, float64(len(plan.Chunks)))
	cc.rows = append(cc.rows, float64(len(qr.Rows)))
	cc.pruned = append(cc.pruned, float64(plan.Route.Pruned)/float64(len(placed)))
	return nil
}

// runJob performs the two fabric transactions of one chunk query directly
// on the worker: write the payload to /query2/<chunk>, read /result/<hash>.
func runJob(ctx context.Context, tr *tracer, parent int, req int64, w *worker.Worker, chunk partition.ChunkID, payload []byte) (data []byte, took time.Duration, err error) {
	took = tr.timed("worker.job", parent, req, func() {
		if err = w.HandleWriteContext(ctx, xrd.QueryPath(int(chunk)), payload); err != nil {
			return
		}
		data, err = w.HandleReadContext(ctx, xrd.ResultPath(payload))
	})
	return data, took, err
}

// buildOnlyStatements keeps a near-neighbour chunk query's SUBCHUNKS
// header (so the worker builds the same subchunk and overlap tables) but
// replaces the joins with a COUNT(*) over each table the first subchunk's
// overlap join names (statement 1: subchunk o1, overlap companion o2).
func buildOnlyStatements(cq core.ChunkQuery) []string {
	if len(cq.Statements) < 2 {
		return cq.Statements
	}
	stmts, err := sqlparse.ParseScript(cq.Statements[1])
	if err != nil || len(stmts) == 0 {
		return cq.Statements
	}
	sel, ok := stmts[0].(*sqlparse.Select)
	if !ok {
		return cq.Statements
	}
	var out []string
	for _, ref := range sel.From {
		out = append(out, "SELECT COUNT(*) FROM "+ref.SQL())
	}
	return out
}

// tracedRead is the traced run's timed phase and replay for a query
// workload. Every other rotation of the timed phase runs inside client
// spans; the ratio of the two halves' medians is the tracing overhead. It
// fills res with the per-layer metrics and returns the timed phase.
func tracedRead(w workload, opt options, s *served, gen *stmtGen, counters []map[string]int, timed time.Duration, ref *reference, res *result) (*phase, error) {
	tr := newTracer()
	cl := s.cl
	cache0, _ := cl.Czar.CacheStats()
	reg := cl.Metrics()
	queries0, _ := reg.Value("qserv_czar_queries_total")
	chunks0, _ := reg.Value("qserv_czar_chunks_dispatched_total")
	retries0, _ := reg.Value("qserv_czar_retries_total")
	var scan0 int64
	for _, wk := range cl.Workers {
		scan0 += wk.ScanStats().BytesRead
	}

	allocBefore := totalAllocMB()
	ph, err := drive(s.fe.Addr(), gen, w.rotations, counters, timed, tr)
	if err != nil {
		return nil, err
	}
	// Heap allocated per operation of the workload's heaviest class: a
	// count, exact for one seed whatever the machine's speed today.
	if n := len(ph.class(w.slots[2]).totalMs); n > 0 {
		res.set("bench.alloc_mb_per_q3", (totalAllocMB()-allocBefore)/float64(n), "MB")
	}

	// Product counters over the timed phase.
	cache1, _ := cl.Czar.CacheStats()
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	res.set("qcache.hit_ratio", hitRatio, "ratio")
	queries1, _ := reg.Value("qserv_czar_queries_total")
	chunks1, _ := reg.Value("qserv_czar_chunks_dispatched_total")
	retries1, _ := reg.Value("qserv_czar_retries_total")
	perQuery := 0.0
	if queries1 > queries0 {
		perQuery = float64(chunks1-chunks0) / float64(queries1-queries0)
	}
	res.set("czar.chunks_per_query", perQuery, "count")
	res.set("czar.retries", float64(retries1-retries0), "count")
	var queueUs, execUs, scanWaitMs []float64
	var convoyJoins float64
	var scan1 int64
	for _, wk := range cl.Workers {
		scan1 += wk.ScanStats().BytesRead
		for _, rep := range wk.Reports() {
			if rep.QueuedAt.Before(ph.startedAt) || rep.QueuedAt.After(ph.endedAt) {
				continue
			}
			queueUs = append(queueUs, float64(rep.QueueWait())/1e3)
			execUs = append(execUs, float64(rep.ExecTime())/1e3)
			if rep.Class != core.Interactive {
				scanWaitMs = append(scanWaitMs, float64(rep.QueueWait())/1e6)
			}
			convoyJoins += float64(rep.ConvoyJoins)
		}
	}
	res.set("worker.queue_wait_us", median(queueUs), "us")
	res.set("worker.exec_us", median(execUs), "us")
	res.set("worker.scan_lane_wait_p99_ms", percentile(scanWaitMs, 99), "ms")
	res.set("scanshare.convoy_joins", convoyJoins, "count")
	res.set("scanshare.bytes_read", float64(scan1-scan0), "B")
	res.set("bench.generator_lag_ms", mean(ph.lagMs), "ms")
	lv3 := ph.class(clsLV3).totalMs
	if w.name == "mixed" {
		res.set("mixed.lv3_mean_ms", mean(lv3), "ms")
		res.set("mixed.lv3_p99_ms", percentile(lv3, 99), "ms")
		res.set("mixed.lv_qps", float64(len(lv3)+len(ph.class(clsLV1).totalMs)+len(ph.class(clsLV2).totalMs))/ph.elapsed.Seconds(), "1/s")
	}
	if q1 := ph.class(w.slots[0]); len(q1.plainMs) > 0 && len(q1.spannedMs) > 0 {
		res.set("trace.overhead_ratio", median(q1.spannedMs)/median(q1.plainMs), "ratio")
	}

	// The replay: continue each class's statement sequence where the
	// timed phase stopped.
	rp := newReplayer(s, tr, gen)
	defer rp.close()
	for _, class := range w.classesOf() {
		next := 0
		for _, c := range counters {
			if c[class] > next {
				next = c[class]
			}
		}
		next *= len(w.rotations)
		for i := 0; i < replayCount(class); i++ {
			if err := rp.statement(gen.make(class, next+i)); err != nil {
				return nil, fmt.Errorf("replay %s: %w", class, err)
			}
		}
	}
	rttUs, perRowUs, err := frontendLayer(tr, res, rp.bigCols, rp.bigRows)
	if err != nil {
		return nil, err
	}
	rp.report(w, ph, res, rttUs, perRowUs)
	indexLayer(tr, res, cl, ref)
	return ph, finishTrace(tr, res, opt, ref)
}

// finishTrace adds the layer measurements every traced run makes whatever
// its workload (fabric, partitioning, write path, preflight) and writes
// the spans, once.
func finishTrace(tr *tracer, res *result, opt options, ref *reference) error {
	if err := xrdLayer(tr, res); err != nil {
		return err
	}
	res.set("xrd.dial_failures", float64(xrd.Counters().DialFailures), "count") // since process start
	if err := ingestLayer(tr, res, ref); err != nil {
		return err
	}
	mism, err := preflight(opt.seed, res)
	if err != nil {
		return err
	}
	res.set("frontend.preflight_mismatches", float64(mism), "count")
	path := filepath.Join(traceDir, "trace_"+opt.workload+".json")
	if err := tr.write(path, map[string]any{"workload": opt.workload, "seed": opt.seed, "env": environment()}); err != nil {
		return err
	}
	res.notef("%d spans written to %s", len(tr.snapshot()), path)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// report turns the replayed costs into the per-layer metrics and the
// layer-share table. Shares are work shares: worker jobs were run one at
// a time and the stub czar on one P, so every figure is time on one core.
// The predicted latency spreads per-chunk work over min(GOMAXPROCS,
// chunks) cores and leaves the rest serial; coverage is predicted over
// the measured client-side median.
func (r *replayer) report(w workload, ph *phase, res *result, rttUs, perRowUs float64) {
	var all classCost
	for _, class := range w.classesOf() {
		cc := r.cost[class]
		if cc == nil {
			continue
		}
		all.parse = append(all.parse, cc.parse...)
		all.plan = append(all.plan, cc.plan...)
		all.route = append(all.route, cc.route...)
		all.cache = append(all.cache, cc.cache...)
		all.pruned = append(all.pruned, cc.pruned...)
		all.perJob = append(all.perJob, cc.perJob...)
		all.perExec = append(all.perExec, cc.perExec...)
		all.scanned += cc.scanned
		all.chunkRows += cc.chunkRows
		all.chunkBytes += cc.chunkBytes
		all.subchunks += cc.subchunks
		all.buildOnly += cc.buildOnly
		for i := range cc.czar {
			all.czar = append(all.czar, cc.czar[i]/cc.chunks[i])
		}
		all.exec = append(all.exec, sum(cc.exec))
		all.encode = append(all.encode, sum(cc.encode))
		all.decode = append(all.decode, sum(cc.decode))
		all.jobs = append(all.jobs, sum(cc.jobs))
	}
	// core.Plan calls the routing tier: its own cost is its span's self
	// time, the span minus the planopt.route child inside it.
	self := selfByName(r.tr.snapshot())
	res.set("sqlparse.parse_us", median(all.parse)/1e3, "us")
	res.set("core.plan_us", median(self["core.plan"])/1e3, "us")
	res.set("planopt.route_us", median(all.route)/1e3, "us")
	res.set("planopt.pruned_ratio", mean(all.pruned), "ratio")
	res.set("qcache.miss_put_us", median(all.cache)/1e3, "us")
	res.set("czar.dispatch_fold_us_per_chunk", median(all.czar)/1e3, "us")
	res.set("worker.job_us", median(all.perJob)/1e3, "us")
	res.set("sqlengine.exec_us", median(all.perExec)/1e3, "us")
	if all.scanned > 0 {
		res.set("sqlengine.scan_ns_per_row", sum(all.exec)/float64(all.scanned), "ns/row")
	}
	if all.chunkRows > 0 {
		krows := float64(all.chunkRows) / 1e3
		res.set("dump.encode_us_per_krow", sum(all.encode)/1e3/krows, "us/krow")
		res.set("dump.decode_us_per_krow", sum(all.decode)/1e3/krows, "us/krow")
		res.set("dump.bytes_per_row", float64(all.chunkBytes)/float64(all.chunkRows), "B/row")
	}
	if all.subchunks > 0 {
		var shvJobs float64
		if cc := r.cost[clsSHV1]; cc != nil {
			shvJobs = sum(cc.jobs)
		}
		res.set("worker.subchunk_build_us", all.buildOnly/1e3/float64(all.subchunks), "us")
		res.set("sqlengine.join_us_per_subchunk", (shvJobs-all.buildOnly)/1e3/float64(all.subchunks), "us")
	}
	r.allocations(w, res)

	// The layer-share table, per class and for the workload (classes
	// weighted by how often the rotations issue them).
	cores := float64(runtime.GOMAXPROCS(0))
	weight := map[string]float64{}
	for _, rot := range w.rotations {
		for _, c := range rot {
			weight[c]++
		}
	}
	layers := []string{"frontend", "sqlparse", "core", "planopt", "qcache", "czar", "dump.decode", "worker", "sqlengine", "dump.encode"}
	total := map[string]float64{}
	res.notef("layer shares of one statement's work (one-core time, %%), predicted vs measured latency:")
	head := fmt.Sprintf("  %-6s %9s", "class", "work_ms")
	for _, l := range layers {
		head += fmt.Sprintf(" %11s", l)
	}
	res.notef("%s %9s %9s %8s", head, "pred_ms", "p50_ms", "coverage")
	var predW, measW float64
	for _, class := range w.classesOf() {
		cc := r.cost[class]
		if cc == nil || cc.n == 0 {
			continue
		}
		m := median // per statement; a mean over 200 replays is moved by one GC pause
		front := (rttUs + perRowUs*m(cc.rows)) * 1e3
		parse, plan, route, cache := m(cc.parse), m(cc.plan), m(cc.route), m(cc.cache)
		czarWork, jobs, exec, enc, dec := m(cc.czar), m(cc.jobs), m(cc.exec), m(cc.encode), m(cc.decode)
		// The stub czar decodes too; the separately replayed decode is
		// carved out of its time (and can exceed it when a GC cycle
		// landed in the replay rather than in the czar's span).
		inCzar := czarWork - parse - plan - cache
		if dec > inCzar {
			dec = inCzar
		}
		part := map[string]float64{
			"frontend": front, "sqlparse": parse, "core": plan - route, "planopt": route, "qcache": cache,
			"czar": inCzar - dec, "dump.decode": dec,
			"worker": jobs - exec - enc, "sqlengine": exec, "dump.encode": enc,
		}
		work := front + czarWork + jobs
		par := cores
		if c := m(cc.chunks); c < par {
			par = c
		}
		if par < 1 {
			par = 1
		}
		serial := front + parse + plan + cache
		pred := serial + (work-serial)/par
		meas := median(ph.class(class).totalMs) * 1e6
		shares := ""
		for _, l := range layers {
			shares += fmt.Sprintf(" %11.1f", 100*part[l]/work)
			total[l] += weight[class] * part[l]
		}
		total["work"] += weight[class] * work
		predW += weight[class] * pred
		measW += weight[class] * meas
		res.notef("  %-6s %9.3f%s %9.3f %9.3f %7.0f%%", class, work/1e6, shares, pred/1e6, meas/1e6, 100*pred/meas)
	}
	if total["work"] > 0 {
		workerAll := (total["worker"] + total["sqlengine"] + total["dump.encode"]) / total["work"]
		transfer := (total["dump.encode"] + total["dump.decode"] + total["czar"] + total["frontend"]) / total["work"]
		res.set("share.worker", workerAll, "ratio")
		res.set("share.sqlengine", total["sqlengine"]/total["work"], "ratio")
		res.set("share.transfer", transfer, "ratio")
		res.set("trace.coverage_ratio", predW/measW, "ratio")
		res.notef("  workload: worker (job incl. scan and encode) %.0f%%, scan (sqlengine) %.0f%%, transfer (dump + czar + frontend) %.0f%%, coverage %.0f%%",
			100*workerAll, 100*total["sqlengine"]/total["work"], 100*transfer, 100*predW/measW)
	}
}

// allocations counts heap allocations of the scan and of the dump codec
// on one chunk statement of the workload's first full-sky class (its last
// class when it has none).
func (r *replayer) allocations(w workload, res *result) {
	cl := r.s.cl
	classes := w.classesOf()
	class := classes[len(classes)-1]
	for i := len(classes) - 1; i >= 0; i-- {
		if fullSky(classes[i]) {
			class = classes[i]
		}
	}
	st := r.gen.make(class, 20000) // run on the engine directly: no result store to collide with
	sel, err := sqlparse.ParseSelect(st.SQL)
	if err != nil {
		return
	}
	planner := core.NewPlanner(cl.Registry, cl.Index)
	planner.TopK = cl.Config.TopKPushdown
	planner.Router = planopt.New(cl.Registry, cl.Index, cl.Stats, planopt.Config{Pruning: cl.Config.ChunkPruning})
	plan, err := planner.Plan(sel, cl.Placement.Chunks())
	if err != nil || len(plan.Chunks) == 0 {
		return
	}
	chunk := plan.Chunks[len(plan.Chunks)/2] // mid-sky: the edge chunks are nearly empty
	cq := plan.QueryFor(chunk)
	if len(cq.SubChunks) > 0 {
		return
	}
	stmts, err := sqlparse.ParseScript(string(cq.Payload()))
	if err != nil {
		return
	}
	eng := cl.WorkerByName(cl.Placement.Workers(chunk)[0]).Engine()
	for _, s := range stmts {
		if _, ok := s.(*sqlparse.Select); !ok {
			continue
		}
		out, err := eng.ExecuteStmt(s)
		if err != nil {
			return
		}
		if out.Stats.RowsScanned > 0 {
			allocs := mallocsPer(5, func() { _, _ = eng.ExecuteStmt(s) })
			res.set("sqlengine.allocs_per_krow", allocs/float64(out.Stats.RowsScanned)*1e3, "allocs/krow")
		}
		if len(out.Rows) > 0 {
			allocs := mallocsPer(5, func() { _, _ = dump.Decode(dump.Dump("r_bench", out)) })
			res.set("dump.allocs_per_krow", allocs/float64(len(out.Rows))*1e3, "allocs/krow")
		}
		return
	}
}
