// Command qserv-worker runs one Qserv worker as a network data server: it
// starts empty (or with what its -data-dir holds) and serves the xrd file
// transactions over TCP.
//
//	qserv-worker -name w0 -addr 127.0.0.1:7001
//
// Everything it stores reaches it over the fabric: the catalog through
// /load/spec, rows through /load, replicas through /repl — shipped by the
// qserv-czar whose -workers list names it. Its configuration is the one an
// in-process worker gets (ClusterConfig.WorkerConfig), flags overriding
// the defaults.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	qserv "repro"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/worker"
	"repro/internal/xrd"
)

var defaults = qserv.DefaultClusterConfig(0)

var (
	nameFlag        = flag.String("name", "w0", "this worker's cluster name")
	addrFlag        = flag.String("addr", "127.0.0.1:7001", "listen address")
	slotsFlag       = flag.Int("slots", defaults.WorkerSlots, "parallel scan-class chunk queries (paper: 4)")
	interactiveFlag = flag.Int("interactive-slots", defaults.InteractiveSlots, "dedicated interactive-class slots")
	dataDirFlag     = flag.String("data-dir", "", "durable chunk store parent directory, the store lives in <dir>/<name> (empty = in-memory only); a restart recovers the worker's chunks from it")
	memBudgetFlag   = flag.Int64("mem-budget", 0, "resident chunk-table byte budget; above it cold chunks are evicted to the data dir and re-materialized on first touch (0 = unbudgeted, requires -data-dir)")
	adminFlag       = flag.String("admin-addr", "", "admin HTTP listen address serving /metrics and /debug/pprof/ (empty = disabled)")
)

// logger emits the daemon's lifecycle events; fatal startup failures go
// through fatal() so they render in the same structured format.
var logger = telemetry.NewLogger("qserv-worker")

func fatal(event string, err error) {
	logger.Error(event, "err", err)
	os.Exit(1)
}

func main() {
	flag.Parse()
	if *memBudgetFlag > 0 && *dataDirFlag == "" {
		fatal("config.mem_budget", fmt.Errorf("-mem-budget needs -data-dir: a budget pages against the durable store"))
	}

	cfg := defaults
	cfg.WorkerSlots = *slotsFlag
	cfg.InteractiveSlots = *interactiveFlag
	cfg.DataDir = *dataDirFlag
	cfg.WorkerMemoryBudget = *memBudgetFlag

	// The database name and the partitioning geometry are the defaults the
	// czar daemon uses too; the tables arrive over /load/spec.
	chunker, err := partition.NewChunker(cfg.Partition)
	if err != nil {
		fatal("config.partition", err)
	}
	reg := telemetry.NewRegistry()
	w, err := worker.New(cfg.WorkerConfig(*nameFlag, reg), meta.NewRegistry(cfg.Database, chunker))
	if err != nil {
		fatal("worker.new", err)
	}
	defer w.Close()
	if n := len(w.Chunks()); n > 0 {
		fmt.Printf("worker %s recovered %d chunks from %s\n", *nameFlag, n, *dataDirFlag)
	}

	if *adminFlag != "" {
		admin, err := telemetry.ServeAdmin(*adminFlag, reg)
		if err != nil {
			fatal("admin.listen", err)
		}
		defer admin.Close()
		fmt.Printf("admin HTTP on http://%s (/metrics, /debug/pprof/)\n", admin.Addr())
	}

	srv, err := xrd.Serve(*addrFlag, w)
	if err != nil {
		fatal("xrd.listen", err)
	}
	defer srv.Close()
	fmt.Printf("worker %s serving on %s\n", *nameFlag, srv.Addr())
	logger.Info("worker.ready", "name", *nameFlag, "chunks", len(w.Chunks()), "addr", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
}
