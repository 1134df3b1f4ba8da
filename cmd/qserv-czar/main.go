// Command qserv-czar runs the Qserv master frontend against a set of
// qserv-worker processes, exposing SQL over TCP through the frontend:
//
//	qserv-czar -workers w0=127.0.0.1:7001,w1=127.0.0.1:7002 \
//	           -peers w0,w1 -listen 127.0.0.1:7000 -seed 1
//
// The catalog/layout flags must match the workers' exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/czar"
	"repro/internal/deploy"
	"repro/internal/frontend"
	"repro/internal/member"
	"repro/internal/partition"
	"repro/internal/planopt"
	"repro/internal/qcache"
	"repro/internal/telemetry"
	"repro/internal/xrd"
)

var (
	workersFlag  = flag.String("workers", "w0=127.0.0.1:7001", "name=addr list of workers")
	peersFlag    = flag.String("peers", "", "comma-separated worker names (default: from -workers)")
	listenFlag   = flag.String("listen", "127.0.0.1:7000", "frontend listen address")
	maxSessFlag  = flag.Int("max-sessions", 256, "global concurrent session quota (0 = unlimited)")
	userSessFlag = flag.Int("user-sessions", 64, "per-user concurrent session quota (0 = unlimited)")
	queueFlag    = flag.Int("session-queue", 128, "waiting-session queue depth (full queue sheds with busy)")
	seedFlag     = flag.Int64("seed", 1, "catalog seed")
	objectsFlag  = flag.Int("objects", 400, "objects per patch")
	sourcesFlag  = flag.Float64("sources", 3, "mean sources per object")
	bandsFlag    = flag.Int("bands", 2, "declination bands to duplicate")
	copiesFlag   = flag.Int("copies", 30, "max patch copies (0 = unlimited)")
	cacheFlag    = flag.Int64("cache-bytes", 64<<20, "czar result cache budget in bytes (0 disables)")
	pruneFlag    = flag.Bool("chunk-pruning", true, "prune chunks by derived spatial predicates")
	adminFlag    = flag.String("admin-addr", "", "admin HTTP listen address serving /metrics and /debug/pprof/ (empty = disabled)")
	slowFlag     = flag.Duration("slow-query", 0, "log queries at least this slow with their span summary (0 = disabled)")
)

// logger emits the daemon's lifecycle events; fatal startup failures go
// through fatal() so they render in the same structured format.
var logger = telemetry.NewLogger("qserv-czar")

func fatal(event string, err error) {
	logger.Error(event, "err", err)
	os.Exit(1)
}

func main() {
	flag.Parse()

	names, addrs, err := deploy.ParseWorkerList(*workersFlag)
	if err != nil {
		fatal("config.workers", err)
	}
	peerNames := names
	if *peersFlag != "" {
		peerNames = strings.Split(*peersFlag, ",")
	}

	spec := deploy.CatalogSpec{
		Seed: *seedFlag, Objects: *objectsFlag, Sources: *sourcesFlag,
		Bands: *bandsFlag, Copies: *copiesFlag,
	}
	cat, err := spec.Build()
	if err != nil {
		fatal("catalog.build", err)
	}
	layout, err := deploy.ComputeLayout(cat, peerNames)
	if err != nil {
		fatal("layout.compute", err)
	}

	red := xrd.NewRedirector()
	for name, addr := range addrs {
		ep := xrd.NewTCPEndpoint(name, addr)
		exports := []string{"/result"}
		for _, c := range layout.Placement.ChunksOn(name) {
			exports = append(exports, xrd.QueryPath(int(c)))
		}
		red.Register(ep, exports...)
	}

	// The telemetry spine: one registry every subsystem exports into,
	// per-query tracing retained for SHOW PROFILE, and (with -slow-query)
	// the slow-query log.
	reg := telemetry.NewRegistry()
	xrdVal := func(pick func(xrd.LaneCounters) int64) func() int64 {
		return func() int64 { return pick(xrd.Counters()) }
	}
	reg.CounterFunc("qserv_xrd_dials_total", "fabric endpoint dials attempted",
		xrdVal(func(c xrd.LaneCounters) int64 { return c.Dials }))
	reg.CounterFunc("qserv_xrd_dial_failures_total", "fabric endpoint dials that failed",
		xrdVal(func(c xrd.LaneCounters) int64 { return c.DialFailures }))
	reg.CounterFunc("qserv_xrd_backoff_suppressed_total", "fabric dials fast-failed by backoff",
		xrdVal(func(c xrd.LaneCounters) int64 { return c.BackoffSuppressed }))

	cz := czar.New(czar.DefaultConfig("czar-0"), layout.Registry, layout.Index, layout.Placement, red)
	cz.SetTelemetry(czar.Telemetry{
		Metrics:            reg,
		Trace:              true,
		Ring:               telemetry.NewTraceRing(128),
		SlowQueryThreshold: *slowFlag,
	})
	// The routing tier (index dives, spatial covers) and the epoch/
	// ingest-invalidated result cache. The deploy layout synthesizes
	// its catalog worker-side, so there are no per-chunk ingest stats
	// here — stats pruning stays dormant (nil ChunkStats).
	cz.SetRouter(planopt.New(layout.Registry, layout.Index, nil, planopt.Config{Pruning: *pruneFlag}))
	if *cacheFlag > 0 {
		cz.SetResultCache(qcache.New(*cacheFlag))
	}
	// Close cancels and drains in-flight queries, so workers' scan
	// slots are released before the frontend stops answering.
	defer cz.Close()

	// The availability subsystem: the detector pings every worker over
	// /ping (dispatch then skips dead ones; the TCP lanes' dial backoff
	// keeps dead-peer probing cheap) and the replication manager
	// re-homes chunks when replicas exist to copy from. The deploy
	// layout is replication 1, so a death shows up as pending repairs
	// in SHOW REPAIRS rather than silent timeouts.
	var partitioned []string
	for _, name := range layout.Registry.TableNames() {
		if info, err := layout.Registry.Table(name); err == nil && info.Partitioned {
			partitioned = append(partitioned, info.Name)
		}
	}
	mgr := member.NewManager(member.Config{
		Repair: member.RepairConfig{
			Factor:     1,
			Tables:     func() []string { return partitioned },
			Candidates: func() []string { return names },
			Rehome: func(chunk partition.ChunkID, from, to string) {
				if to != "" {
					if ep, err := red.Endpoint(to); err == nil {
						red.Register(ep, xrd.QueryPath(int(chunk)))
					}
				}
				if from != "" {
					red.Deregister(from, xrd.QueryPath(int(chunk)))
				}
			},
		},
		SelfHeal: true,
	}, xrd.NewClient(red), layout.Placement)
	mgr.Watch(names...)
	cz.SetMembership(mgr)
	mgr.RegisterMetrics(reg)
	mgr.Start()
	defer mgr.Close()

	if *adminFlag != "" {
		admin, err := telemetry.ServeAdmin(*adminFlag, reg)
		if err != nil {
			fatal("admin.listen", err)
		}
		defer admin.Close()
		fmt.Printf("admin HTTP on http://%s (/metrics, /debug/pprof/)\n", admin.Addr())
	}

	// The frontend serves the streaming wire protocol, with admission
	// control bounding the session load any connection storm can put on
	// this czar.
	srv, err := frontend.Serve(*listenFlag, frontend.Config{
		MaxSessions:       *maxSessFlag,
		PerUserSessions:   *userSessFlag,
		SessionQueueDepth: *queueFlag,
		Metrics:           reg,
	}, cz)
	if err != nil {
		fatal("frontend.listen", err)
	}
	defer srv.Close()
	fmt.Printf("czar ready: %d workers, %d chunks; SQL frontend on %s (protocol v2)\n",
		len(addrs), len(layout.Placement.Chunks()), srv.Addr())
	fmt.Printf("connect with: qserv-sql -addr %s  (or database/sql DSN qserv://user@%s/LSST)\n", srv.Addr(), srv.Addr())
	fmt.Printf("manage queries with: SHOW PROCESSLIST; KILL <id>;\n")
	fmt.Printf("watch the cluster with: SHOW WORKERS; SHOW REPAIRS; SHOW FRONTEND; SHOW METRICS; SHOW PROFILE;\n")
	fmt.Printf("profile a query with: EXPLAIN ANALYZE <stmt>;\n")
	logger.Info("czar.ready", "workers", len(addrs),
		"chunks", len(layout.Placement.Chunks()), "listen", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
}
