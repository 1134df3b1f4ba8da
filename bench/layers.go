package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	qserv "repro"
	"repro/internal/chunkstore"
	"repro/internal/core"
	"repro/internal/czar"
	"repro/internal/datagen"
	"repro/internal/frontend"
	"repro/internal/ingest"
	"repro/internal/member"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/qcache"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// This file holds the layer measurements that do not depend on the
// workload's statements: each is a harness span around a layer's public
// function, on inputs derived from the seed. replay.go holds the ones that
// replay the workload's own statements.

// sampleSpans runs fn n times, each inside a span, and returns the
// median duration in nanoseconds.
func sampleSpans(tr *tracer, name string, n int, fn func()) float64 {
	ns := make([]float64, n)
	for i := range ns {
		ns[i] = float64(tr.timed(name, 0, int64(i), fn))
	}
	return median(ns)
}

// mallocsPer counts heap allocations per call of fn, the way
// testing.AllocsPerRun does: one warm-up call, then the Mallocs delta
// over runs calls on a single P.
func mallocsPer(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// xrdLayer times one write + read transaction pair through an xrd.Client
// against a FileStore handler, in process and over loopback TCP.
func xrdLayer(tr *tracer, res *result) error {
	fs := xrd.NewFileStore()
	red := xrd.NewRedirector()
	red.Register(xrd.NewLocalEndpoint("bench-local", fs), "/benchl")
	srv, err := xrd.Serve("127.0.0.1:0", fs)
	if err != nil {
		return err
	}
	defer srv.Close()
	tcp := xrd.NewTCPEndpoint("bench-tcp", srv.Addr())
	defer tcp.Close()
	red.Register(tcp, "/bencht")
	client := xrd.NewClient(red)
	ctx := context.Background()
	var failed error
	rtt := func(name, path string, size int) float64 {
		payload := make([]byte, size)
		return sampleSpans(tr, name, 300, func() {
			if _, err := client.Write(ctx, path, payload); err != nil {
				failed = err
			}
			if _, err := client.Read(ctx, path); err != nil {
				failed = err
			}
		}) / 1e3
	}
	res.set("xrd.local_rtt_us", rtt("xrd.local_rtt", "/benchl/f", 1<<10), "us")
	res.set("xrd.tcp_rtt_us", rtt("xrd.tcp_rtt", "/bencht/f", 1<<10), "us")
	res.set("xrd.local_rtt_100k_us", rtt("xrd.local_rtt_100k", "/benchl/g", 100<<10), "us")
	res.set("xrd.tcp_rtt_100k_us", rtt("xrd.tcp_rtt_100k", "/bencht/g", 100<<10), "us")
	return failed
}

// indexLayer times ObjectIndex.Lookup in batches of 1000 calls (one call
// is below the clock's resolution).
func indexLayer(tr *tracer, res *result, cl *qserv.Cluster, ref *reference) {
	const batch = 1000
	ids := ref.objIDs
	pos := 0
	lookup := sampleSpans(tr, "meta.index_lookup_x1000", 50, func() {
		for i := 0; i < batch; i++ {
			if loc, ok := cl.Index.Lookup(ids[pos%len(ids)]); ok {
				benchSink += int(loc.Chunk)
			}
			pos += 7919
		}
	})
	res.set("meta.index_lookup_ns", lookup/batch, "ns")
}

// locateNs times Chunker.Locate the same way.
func locateNs(tr *tracer, chunker *partition.Chunker, sample []datagen.Object) float64 {
	const batch = 1000
	pts := make([]sphgeom.Point, len(sample))
	for i, o := range sample {
		pts[i] = sphgeom.NewPoint(o.RA, o.Decl)
	}
	locate := sampleSpans(tr, "partition.locate_x1000", 50, func() {
		for i := 0; i < batch; i++ {
			c, _ := chunker.Locate(pts[i%len(pts)])
			benchSink += int(c)
		}
	})
	return locate / batch
}

// benchSink keeps the batched calls' results alive so the compiler cannot
// drop the calls.
var benchSink int

// storageRows renders the sample objects as full storage rows (user
// columns plus chunkId and subChunkId), as Ingest ships them.
func storageRows(chunker *partition.Chunker, sample []datagen.Object) []sqlengine.Row {
	rows := make([]sqlengine.Row, len(sample))
	for i, o := range sample {
		c, sub := chunker.Locate(sphgeom.NewPoint(o.RA, o.Decl))
		rows[i] = append(datagen.ObjectUserRow(o), int64(c), int64(sub))
	}
	return rows
}

// ingestLayer times the write path's layers on one /load batch of the
// product's default size: the partitioner, the ingest codec, a worker's
// table build (HandleWrite on /load), and the chunkstore's append and
// read-back.
func ingestLayer(tr *tracer, res *result, ref *reference) error {
	chunker, err := partition.NewChunker(benchPartition())
	if err != nil {
		return err
	}
	res.set("partition.locate_ns", locateNs(tr, chunker, ref.sample), "ns")
	rows := storageRows(chunker, ref.sample)
	n := float64(len(rows))
	var payload []byte
	var failed error
	enc := sampleSpans(tr, "ingest.encode", 50, func() {
		if payload, err = ingest.EncodeBatch(ingest.Batch{Rows: rows}); err != nil {
			failed = err
		}
	})
	dec := sampleSpans(tr, "ingest.decode", 50, func() {
		if _, err := ingest.DecodeBatch(payload); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	res.set("ingest.encode_ns_per_row", enc/n, "ns/row")
	res.set("ingest.decode_ns_per_row", dec/n, "ns/row")
	res.set("ingest.bytes_per_row", float64(len(payload))/n, "B/row")

	// A scratch in-memory worker: what /load costs before durability.
	specBytes, err := ingest.EncodeSpec(datagen.LSSTSpec())
	if err != nil {
		return err
	}
	w, err := worker.New(worker.DefaultConfig("bench-scratch"), meta.NewRegistry(benchDB, chunker))
	if err != nil {
		return err
	}
	defer w.Close()
	if err := w.HandleWrite(xrd.LoadSpecPath, specBytes); err != nil {
		return err
	}
	chunk := 0
	load := sampleSpans(tr, "worker.load", 30, func() {
		chunk++
		if err := w.HandleWrite(xrd.LoadPath("Object", chunk), payload); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	res.set("worker.load_us_per_krow", load/1e3/n*1e3, "us/krow")

	// The durable store alone, with the product's commit protocol.
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(traceDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := chunkstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	unit := 0
	const appends = 30
	app := sampleSpans(tr, "chunkstore.append", appends, func() {
		unit++
		if err := st.Append(chunkstore.Unit{Table: "Object", Chunk: unit}, payload); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	c := st.Counters()
	res.set("chunkstore.append_us", app/1e3, "us")
	res.set("chunkstore.wal_fsyncs", float64(c.WALFsyncs)/appends, "count")
	res.set("chunkstore.seg_writes", float64(c.SegWrites)/appends, "count")
	u := 0
	read := sampleSpans(tr, "chunkstore.segments", appends, func() {
		u++
		if _, err := st.Segments(chunkstore.Unit{Table: "Object", Chunk: u}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	res.set("chunkstore.read_mb_per_s", float64(len(payload))/(1<<20)/(read/1e9), "MB/s")
	return nil
}

// feedBackend is a frontend.Backend whose sessions are fed canned rows by
// the harness through czar.NewQueryHandle: the frontend with a zero-cost
// czar. The statement text "n" asks for the first n canned rows.
type feedBackend struct {
	cols []string
	rows []sqlengine.Row
	tr   *tracer
	seq  int64
}

func (b *feedBackend) Submit(_ context.Context, sql string, _ czar.Options) (*czar.Query, error) {
	var n int
	if _, err := fmt.Sscanf(sql, "%d", &n); err != nil || n > len(b.rows) {
		return nil, fmt.Errorf("feed backend: bad row count %q", sql)
	}
	b.seq++
	id := b.tr.start("frontend.feed", 0, b.seq)
	q, feed := czar.NewQueryHandle(b.seq, sql, core.Interactive)
	feed.SetColumns(b.cols...)
	feed.Push(b.rows[:n]...)
	feed.Finish(&sqlengine.Result{Cols: b.cols, Rows: b.rows[:n]}, nil)
	b.tr.end(id)
	return q, nil
}
func (b *feedBackend) Running() []czar.QueryInfo            { return nil }
func (b *feedBackend) Kill(int64) bool                      { return false }
func (b *feedBackend) ClusterStatus() (member.Status, bool) { return member.Status{}, false }
func (b *feedBackend) CacheStats() (qcache.Stats, bool)     { return qcache.Stats{}, false }
func (b *feedBackend) MetricsText() (string, bool)          { return "", false }
func (b *feedBackend) Profile(int64) (string, bool)         { return "", false }
func (b *feedBackend) Profiles(int) []string                { return nil }

// frontendLayer times frontend.Serve + frontend.Dial alone: the round
// trip of a one-row answer, and the per-row cost of streaming rows of the
// workload's own shape (cols/rows: the largest answer the replay saw,
// repeated up to 1000 rows when shorter).
func frontendLayer(tr *tracer, res *result, cols []string, rows []sqlengine.Row) (rttUs, perRowUs float64, err error) {
	if len(rows) == 0 {
		cols, rows = []string{"n"}, []sqlengine.Row{{int64(1)}}
	}
	for len(rows) < 1000 {
		rows = append(rows, rows...)
	}
	if len(rows) > 50000 {
		rows = rows[:50000]
	}
	srv, err := frontend.Serve("127.0.0.1:0", frontend.Config{}, &feedBackend{cols: cols, rows: rows, tr: tr})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	c, err := frontend.Dial(srv.Addr(), benchUser, benchDB)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	var failed error
	op := func(n int) func() {
		sql := fmt.Sprint(n)
		return func() {
			if r := runOp(c, sql, nil); r.err != nil {
				failed = r.err
			}
		}
	}
	rtt := sampleSpans(tr, "frontend.rtt", 500, op(1))
	reps := 20
	if len(rows) <= 1000 {
		reps = 200
	}
	full := sampleSpans(tr, "frontend.write", reps, op(len(rows)))
	if failed != nil {
		return 0, 0, failed
	}
	rttUs = rtt / 1e3
	perRowUs = (full - rtt) / 1e3 / float64(len(rows))
	res.set("frontend.rtt_us", rttUs, "us")
	res.set("frontend.write_us_per_krow", perRowUs*1e3, "us/krow")
	return rttUs, perRowUs, nil
}

// paperStatements are the paper's eight section 6.2 statements, verbatim
// (objectIds filled in from the preflight catalog).
func paperStatements(objectID, sourceObjectID int64) []string {
	return []string{
		fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", objectID),
		fmt.Sprintf("SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = %d", sourceObjectID),
		"SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4 AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30",
		"SELECT COUNT(*) FROM Object",
		"SELECT " + hv2Columns + " FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.5",
		"SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId",
		"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(2, 2, 8, 8) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2",
		"SELECT o.objectId, s.sourceId FROM Object o, Source s WHERE qserv_areaspec_box(2, 2, 12, 12) AND o.objectId = s.objectId AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.00002",
	}
}

// preflight runs the paper's eight statements verbatim, in process and
// over protocol v2, each against the oracle, on a catalog small enough
// for the oracle's quadratic joins. It returns how many statements
// disagreed with the oracle on either path; the count is reported, not
// hidden: it reads 1 today (HV3's AVG over v2, see README).
func preflight(seed int64, res *result) (int, error) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: seed, ObjectsPerPatch: 200, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 1, SourceDeclLimit: sourceDeclLimit, MaxCopies: 6},
	)
	if err != nil {
		return 0, err
	}
	s, err := setup(cat, "")
	if err != nil {
		return 0, err
	}
	defer s.close()
	oracle, err := buildOracle(cat)
	if err != nil {
		return 0, err
	}
	c, err := frontend.Dial(s.fe.Addr(), benchUser, benchDB)
	if err != nil {
		return 0, err
	}
	defer func() { c.Close() }()
	mismatches := 0
	for _, sql := range paperStatements(cat.Objects[0].ObjectID, cat.Sources[0].ObjectID) {
		want, err := oracle.Query(sql)
		if err != nil {
			return 0, fmt.Errorf("preflight oracle: %s: %w", sql, err)
		}
		bad := ""
		if got, err := s.cl.Query(sql); err != nil {
			bad = "in-process: " + err.Error()
		} else if err := sameRows(got.Rows, want.Rows); err != nil {
			bad = "in-process: " + err.Error()
		}
		var rows [][]any
		if r := runOp(c, sql, &rows); r.err != nil {
			bad += " v2: " + r.err.Error()
			c.Close()
			if c, err = frontend.Dial(s.fe.Addr(), benchUser, benchDB); err != nil {
				return 0, err
			}
		} else if err := sameRows(rows, want.Rows); err != nil {
			bad += " v2: " + err.Error()
		}
		if bad != "" {
			mismatches++
			res.notef("preflight mismatch: %s: %s", sql, bad)
		}
	}
	return mismatches, nil
}
