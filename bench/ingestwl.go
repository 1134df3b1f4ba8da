package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/frontend"
)

// repetition is one pass of the ingest-restart workload.
type repetition struct {
	ingestMs  float64 // CreateTables + Ingest Object + Source, durable
	restartMs float64 // RestartWorker on every worker
	coldMs    float64 // one full-sky COUNT(*) on the now-cold chunks, through the frontend
	diskBytes int64   // bytes under DataDir after ingest
	resident  float64 // heap after the cold scan, cluster still open (only when asked)
	// Product counters, summed over workers.
	walFsyncs        int64 // chunkstore fsyncs of the whole ingest
	segWrites        int64 // segment files written by the whole ingest
	materializations int64 // units the cold scan materialised from disk
}

// repeatIngest runs one repetition: fresh DataDir, durable ingest, restart
// of every worker, one cold scan, close. The chunkstore runs with the
// product's flush policy (WAL append + fsync before every acknowledged
// /load write); nothing here changes it.
func repeatIngest(cat *datagen.Catalog, nObjects int, wantHeap bool) (rep repetition, err error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return rep, err
	}
	dir, err := os.MkdirTemp(traceDir, "data-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)

	// Each timed step starts from a collected heap: whether the garbage of
	// the step before triggers a GC cycle inside this one would otherwise
	// decide a third of its time.
	runtime.GC()
	s, err := setup(cat, dir)
	if err != nil {
		return rep, err
	}
	defer s.close()
	rep.ingestMs = float64(s.ingest) / 1e6
	if rep.diskBytes, err = dirBytes(dir); err != nil {
		return rep, err
	}
	for _, name := range s.cl.WorkerNames() {
		f, _ := s.cl.Metrics().Value("qserv_chunkstore_wal_fsyncs_total", "worker", name)
		w, _ := s.cl.Metrics().Value("qserv_chunkstore_seg_writes_total", "worker", name)
		rep.walFsyncs += f
		rep.segWrites += w
	}

	runtime.GC()
	start := time.Now()
	for _, name := range s.cl.WorkerNames() {
		if err := s.cl.RestartWorker(name); err != nil {
			return rep, err
		}
	}
	rep.restartMs = float64(time.Since(start)) / 1e6

	c, err := frontend.Dial(s.fe.Addr(), benchUser, benchDB)
	if err != nil {
		return rep, err
	}
	defer c.Close()
	runtime.GC()
	var rows [][]any
	r := runOp(c, "SELECT COUNT(*) FROM Object", &rows)
	if r.err != nil {
		return rep, fmt.Errorf("cold scan: %w", r.err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != int64(nObjects) {
		return rep, fmt.Errorf("cold scan returned %v, want %d", rows, nObjects)
	}
	rep.coldMs = float64(r.total) / 1e6
	for _, w := range s.cl.Workers {
		rep.materializations += w.ResidencyStats().Materializations
	}
	if wantHeap {
		rep.resident = heapMB()
	}
	return rep, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// runIngestRestart repeats repeatIngest for the run's duration. Set-up is
// data generation plus one untimed repetition, which also warms the
// filesystem paths every later repetition reuses.
func runIngestRestart(w workload, opt options) (*result, error) {
	res := &result{}
	res.notef("workload %s seed %d seconds %g trace %v  %s", w.name, opt.seed, opt.seconds, opt.trace, environment())
	setupStart := time.Now()
	cat, err := generate(opt.seed)
	if err != nil {
		return nil, err
	}
	nObjects, nRows := len(cat.Objects), len(cat.Objects)+len(cat.Sources)
	warm, err := repeatIngest(cat, nObjects, true)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(setupStart).Seconds()

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var reps []repetition
	allocBefore := totalAllocMB()
	timedStart := time.Now()
	for i := 0; time.Since(timedStart).Seconds() < opt.seconds || len(reps) < 3; i++ {
		id := tr.start("client.repetition", 0, int64(i))
		rep, err := repeatIngest(cat, nObjects, false)
		tr.end(id)
		res.attempted++
		if err != nil {
			res.failed++
			res.notef("repetition %d failed: %v", i, err)
			if res.failed >= 3 {
				break
			}
			continue
		}
		reps = append(reps, rep)
	}
	allocMB := totalAllocMB() - allocBefore
	res.correct = res.failed == 0 && len(reps) > 0
	if len(reps) == 0 {
		return nil, fmt.Errorf("no repetition succeeded")
	}
	col := func(f func(repetition) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	ingestMs := median(col(func(r repetition) float64 { return r.ingestMs }))
	restartMs := median(col(func(r repetition) float64 { return r.restartMs }))
	coldMs := median(col(func(r repetition) float64 { return r.coldMs }))
	bytesPerRow := float64(reps[0].diskBytes) / float64(nRows)
	krows := float64(nRows) / ingestMs

	diags := []diag{
		{"ingest_krows_per_s", krows, "krows/s", len(reps)},
		{"cold_scan_p50_ms", coldMs, "ms", len(reps)},
		{"disk_bytes_per_row", bytesPerRow, "B/row", len(reps)},
		{"restart_p50_ms", restartMs, "ms", len(reps)},
	}
	for _, d := range diags {
		res.notef("  %-22s %12.4f %-8s n=%d", d.name, d.v, d.unit, d.n)
	}
	res.notef("  disk bytes after ingest: %d for %d rows; %d WAL fsyncs, %d segment writes, %d units materialised by the cold scan",
		reps[0].diskBytes, nRows, reps[0].walFsyncs, reps[0].segWrites, reps[0].materializations)
	if !opt.trace {
		res.set("setup_s", setupS, "s")
		res.set("resident_mb", warm.resident, "MB")
		for i, f := range []func(repetition) float64{
			func(r repetition) float64 { return r.ingestMs },
			func(r repetition) float64 { return r.restartMs },
			func(r repetition) float64 { return r.coldMs },
		} {
			res.set(slotMetric(i), percentile(col(f), gatedPercentile), "ms")
		}
		return res, nil
	}
	for _, d := range diags {
		res.set(d.name, d.v, d.unit)
	}
	res.set("worker.materializations", float64(reps[0].materializations), "count")
	res.set("worker.materialize_ms_per_unit", coldMs/float64(reps[0].materializations), "ms")
	res.set("failed_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	res.set("bench.alloc_mb_per_q3", allocMB/float64(res.attempted), "MB")
	return res, finishTrace(tr, res, opt, newReference(cat))
}
