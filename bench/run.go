package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// options are the contract's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

const (
	setupRepeats = 4                       // set-ups per untraced run; setup_s is their lower median, so two disturbed ones do not move it
	warmUp       = 1500 * time.Millisecond // untimed closed-loop phase before the timed one
	traceDir     = "bench/out"
)

// run executes one workload once and returns its report.
func run(opt options) (*result, error) {
	w, ok := workloadByName(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	var res *result
	var err error
	if w.name == ingestRestart {
		res, err = runIngestRestart(w, opt)
	} else {
		res, err = runRead(w, opt)
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		res.fillPerLayer()
		return res, nil
	}
	return res, res.checkEndToEnd()
}

// environment is recorded with every run: the numbers depend on it.
func environment() string {
	return fmt.Sprintf("GOMAXPROCS=%d GOGC=%d %s/%s %s", runtime.GOMAXPROCS(0), gogc(), runtime.GOOS, runtime.GOARCH, runtime.Version())
}

func gogc() int {
	v := debug.SetGCPercent(100)
	debug.SetGCPercent(v)
	return v
}

// runRead runs one of the four query workloads: set-up (several times
// untraced, for a steady setup_s), reference check, warm-up, timed phase.
func runRead(w workload, opt options) (*result, error) {
	res := &result{}
	res.notef("workload %s seed %d seconds %g trace %v  %s", w.name, opt.seed, opt.seconds, opt.trace, environment())

	genStart := time.Now()
	cat, err := generate(opt.seed)
	if err != nil {
		return nil, err
	}
	ref := newReference(cat)
	genS := time.Since(genStart).Seconds()

	repeats := setupRepeats
	if opt.trace {
		repeats = 1 // a traced run reports no setup_s
	}
	var s *served
	var setups []float64
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC() // every set-up starts from the same live heap
		}
		start := time.Now()
		if s, err = setup(cat, ""); err != nil {
			return nil, err
		}
		setups = append(setups, genS+time.Since(start).Seconds())
	}
	defer func() { s.close() }()

	gen := newStmtGen(opt.seed, ref, s.nChunks)
	oracle, err := buildOracle(cat)
	if err != nil {
		return nil, err
	}
	checked, mismatched, verr := validate(w, s, gen, oracle, cat)
	res.notef("reference check: %d statements, %d mismatched", checked, mismatched)
	if verr != nil {
		res.notef("first mismatch: %v", verr)
	}
	// The harness shares its heap with the cluster: the generator state
	// and the oracle are dead from here on, and collected before anything
	// is timed.
	residentMB := heapMB()

	counters := newCounters(len(w.rotations))
	for _, c := range counters {
		for _, class := range allClasses {
			c[class] = maxValidate
		}
	}
	if _, err := drive(s.fe.Addr(), gen, w.rotations, counters, warmUp, nil); err != nil {
		return nil, err
	}
	timed := time.Duration(opt.seconds * float64(time.Second))

	var ph *phase
	if !opt.trace {
		if ph, err = drive(s.fe.Addr(), gen, w.rotations, counters, timed, nil); err != nil {
			return nil, err
		}
	} else if ph, err = tracedRead(w, opt, s, gen, counters, timed, ref, res); err != nil {
		return nil, err
	}

	res.attempted = ph.attempted + int64(checked)
	res.failed = ph.failed + int64(mismatched)
	res.correct = res.failed == 0
	if ph.firstErr != nil {
		res.notef("first failed operation: %v", ph.firstErr)
	}
	for _, line := range classTable(ph) {
		res.notef("%s", line)
	}
	for _, d := range classDiagnostics(ph, ref.nObjects) {
		if d.n > 0 {
			res.notef("  %-22s %12.4f %-8s n=%d", d.name, d.v, d.unit, d.n)
		}
		if opt.trace {
			res.set(d.name, d.v, d.unit)
		}
	}
	if !opt.trace {
		res.set("setup_s", median(setups), "s")
		res.set("resident_mb", residentMB, "MB")
		for i, class := range w.slots {
			cs := ph.class(class)
			if len(cs.totalMs) == 0 {
				return nil, fmt.Errorf("workload %s completed no %s operation in %v", w.name, class, timed)
			}
			res.set(slotMetric(i), percentile(cs.totalMs, gatedPercentile), "ms")
		}
		res.notef("setup samples (s): %.3f", setups)
	}
	return res, nil
}

// totalAllocMB is the process's cumulative heap allocation: a count of
// bytes, so its deltas do not depend on how fast the machine runs today.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// classTable reports every class the phase issued: sample count, the
// gated percentile, the median, and the highest percentile that has at
// least ten samples beyond it.
func classTable(ph *phase) []string {
	lines := []string{fmt.Sprintf("  %-6s %7s %10s %10s  %s", "class", "n", fmt.Sprintf("p%d_ms", gatedPercentile), "p50_ms", "tail")}
	for _, c := range allClasses {
		x := ph.class(c).totalMs
		if len(x) == 0 {
			continue
		}
		tail := "-"
		if p, ok := supportedTail(len(x)); ok {
			tail = fmt.Sprintf("p%g = %.4f ms", p, percentile(x, p))
		}
		lines = append(lines, fmt.Sprintf("  %-6s %7d %10.4f %10.4f  %s", c, len(x), percentile(x, gatedPercentile), median(x), tail))
	}
	return lines
}

// diag is one class-named diagnostic with its sample count.
type diag struct {
	name string
	v    float64
	unit string
	n    int
}

// classDiagnostics renders the per-class figures of a timed phase under
// the paper-class names. Percentiles are never pooled across classes: a
// 96 ms / 151 ms mix would put the median on the gap between the modes.
func classDiagnostics(ph *phase, nObjects int) []diag {
	var out []diag
	p50 := func(name, class string) {
		cs := ph.class(class)
		out = append(out, diag{name, median(cs.totalMs), "ms", len(cs.totalMs)})
	}
	p50("lv1_p50_ms", clsLV1)
	lv1 := ph.class(clsLV1).totalMs
	tail := 0.0
	if len(lv1) > 0 {
		tail = percentile(lv1, 99)
	}
	out = append(out, diag{"lv1_p99_ms", tail, "ms", len(lv1)})
	p50("lv2_p50_ms", clsLV2)
	p50("lv3_p50_ms", clsLV3)
	lvOps := len(lv1) + len(ph.class(clsLV2).totalMs) + len(ph.class(clsLV3).totalMs)
	out = append(out, diag{"lv_qps", float64(lvOps) / ph.elapsed.Seconds(), "1/s", lvOps})
	p50("hv1_p50_ms", clsHV1)
	p50("hv3_p50_ms", clsHV3)
	p50("shv1_p50_ms", clsSHV1)
	hv1, hv3 := ph.class(clsHV1).totalMs, ph.class(clsHV3).totalMs
	scanMs := mean(hv1)*float64(len(hv1)) + mean(hv3)*float64(len(hv3))
	mrows := 0.0
	if scanMs > 0 {
		mrows = float64(len(hv1)+len(hv3)) * float64(nObjects) / 1e6 / (scanMs / 1e3)
	}
	out = append(out, diag{"scan_mrows_per_s", mrows, "Mrows/s", len(hv1) + len(hv3)})
	p50("hv2_p50_ms", clsHV2)
	p50("hv2m_p50_ms", clsHV2m)
	p50("hv2s_p50_ms", clsHV2s)
	hv2 := ph.class(clsHV2)
	out = append(out, diag{"first_row_p50_ms", median(hv2.firstMs), "ms", len(hv2.firstMs)})
	failed := 0.0
	if ph.attempted > 0 {
		failed = float64(ph.failed) / float64(ph.attempted)
	}
	out = append(out, diag{"failed_ratio", failed, "ratio", int(ph.attempted)})
	return out
}
