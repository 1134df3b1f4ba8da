// Command qserv-czar runs the Qserv master against a set of running
// qserv-worker processes and serves SQL over TCP:
//
//	qserv-czar -workers w0=127.0.0.1:7001,w1=127.0.0.1:7002 \
//	           -replication 2 -listen 127.0.0.1:7000 -seed 1
//
// It is a qserv.Cluster over TCP endpoints: it declares the LSST catalog on
// the (empty) workers, synthesizes the -seed catalog, partitions it once and
// ships every chunk to its workers over the fabric's /load transaction —
// the same CreateTables / Ingest an in-process cluster runs — and then
// serves the frontend. Workers that already hold chunks are refused: the
// placement, director index and chunk statistics this czar would need for
// them died with the czar that ingested them.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	qserv "repro"
	"repro/internal/datagen"
	"repro/internal/telemetry"
)

var (
	workersFlag  = flag.String("workers", "w0=127.0.0.1:7001", "name=addr list of workers")
	replFlag     = flag.Int("replication", 1, "workers holding each chunk; 2 or more lets the czar mask a worker's death and heal a worker that restarts empty")
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

// parseWorkerList parses "name=addr,name=addr" into the name -> host:port
// map ClusterConfig.WorkerAddrs takes.
func parseWorkerList(s string) (map[string]string, error) {
	addrs := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty worker list")
	}
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad worker entry %q (want name=addr)", part)
		}
		if _, dup := addrs[name]; dup {
			return nil, fmt.Errorf("duplicate worker %q", name)
		}
		addrs[name] = addr
	}
	return addrs, nil
}

func main() {
	flag.Parse()

	addrs, err := parseWorkerList(*workersFlag)
	if err != nil {
		fatal("config.workers", err)
	}
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: *objectsFlag, MeanSourcesPerObject: *sourcesFlag},
		datagen.DuplicateConfig{DeclBands: *bandsFlag, SourceDeclLimit: 54, MaxCopies: *copiesFlag},
	)
	if err != nil {
		fatal("catalog.build", err)
	}

	cfg := qserv.DefaultClusterConfig(0)
	cfg.WorkerAddrs = addrs
	cfg.Replication = *replFlag
	cfg.ResultCacheBytes = *cacheFlag
	cfg.AdminAddr = *adminFlag
	cfg.SlowQueryThreshold = *slowFlag
	cl, err := qserv.NewCluster(cfg)
	if err != nil {
		fatal("cluster.new", err)
	}
	// Close cancels and drains in-flight queries, so workers' scan
	// slots are released before the frontend stops answering.
	defer cl.Close()
	if a := cl.AdminAddr(); a != "" {
		fmt.Printf("admin HTTP on http://%s (/metrics, /debug/pprof/)\n", a)
	}
	if err := cl.Load(cat); err != nil {
		fatal("catalog.ingest", err)
	}
	logger.Info("catalog.ingested", "objects", len(cat.Objects), "sources", len(cat.Sources),
		"chunks", len(cl.Placement.Chunks()), "replication", cfg.Replication)

	// The frontend serves the streaming wire protocol, with admission
	// control bounding the session load any connection storm can put on
	// this czar.
	fe, err := cl.ServeFrontend(*listenFlag, qserv.FrontendConfig{
		MaxSessions:       *maxSessFlag,
		PerUserSessions:   *userSessFlag,
		SessionQueueDepth: *queueFlag,
	})
	if err != nil {
		fatal("frontend.listen", err)
	}
	defer fe.Close()
	fmt.Printf("czar ready: %d workers, %d chunks; SQL frontend on %s\n",
		len(addrs), len(cl.Placement.Chunks()), fe.Addr())
	fmt.Printf("connect with: qserv-sql -addr %s  (or database/sql DSN qserv://user@%s/LSST)\n", fe.Addr(), fe.Addr())
	fmt.Printf("manage queries with: SHOW PROCESSLIST; KILL <id>;\n")
	fmt.Printf("watch the cluster with: SHOW WORKERS; SHOW REPAIRS; SHOW FRONTEND; SHOW METRICS; SHOW PROFILE;\n")
	fmt.Printf("profile a query with: EXPLAIN ANALYZE <stmt>;\n")
	logger.Info("czar.ready", "workers", len(addrs),
		"chunks", len(cl.Placement.Chunks()), "listen", fe.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
}
