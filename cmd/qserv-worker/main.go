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
	"io"
	"os"
	"os/signal"

	qserv "repro"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// logger emits the daemon's lifecycle events and its startup failures.
var logger = telemetry.NewLogger("qserv-worker")

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it serves until an interrupt and writes what
// it reports to out. It returns the exit status: 2 for arguments it does
// not take (the usage goes to out), 1 when it cannot start, 0 after an
// interrupt.
func run(args []string, out io.Writer) int {
	defaults := qserv.DefaultClusterConfig(0)
	fs := flag.NewFlagSet("qserv-worker", flag.ContinueOnError)
	fs.SetOutput(out)
	nameFlag := fs.String("name", "w0", "this worker's cluster name")
	addrFlag := fs.String("addr", "127.0.0.1:7001", "listen address")
	slotsFlag := fs.Int("slots", defaults.WorkerSlots, "parallel scan-class chunk queries (paper: 4)")
	interactiveFlag := fs.Int("interactive-slots", defaults.InteractiveSlots, "dedicated interactive-class slots")
	dataDirFlag := fs.String("data-dir", "", "durable chunk store parent directory, the store lives in <dir>/<name> (empty = in-memory only); a restart recovers the worker's chunks from it")
	memBudgetFlag := fs.Int64("mem-budget", 0, "resident chunk-table byte budget; above it cold chunks are evicted to the data dir and re-materialized on first touch (0 = unbudgeted, requires -data-dir)")
	adminFlag := fs.String("admin-addr", "", "admin HTTP listen address serving /metrics and /debug/pprof/ (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	if *memBudgetFlag > 0 && *dataDirFlag == "" {
		logger.Error("config.mem_budget", "err", fmt.Errorf("-mem-budget needs -data-dir: a budget pages against the durable store"))
		return 1
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
		logger.Error("config.partition", "err", err)
		return 1
	}
	reg := telemetry.NewRegistry()
	w, err := worker.New(cfg.WorkerConfig(*nameFlag, reg), meta.NewRegistry(cfg.Database, chunker))
	if err != nil {
		logger.Error("worker.new", "err", err)
		return 1
	}
	defer w.Close()
	if n := len(w.Chunks()); n > 0 {
		fmt.Fprintf(out, "worker %s recovered %d chunks from %s\n", *nameFlag, n, *dataDirFlag)
	}

	if *adminFlag != "" {
		admin, err := telemetry.ServeAdmin(*adminFlag, reg)
		if err != nil {
			logger.Error("admin.listen", "err", err)
			return 1
		}
		defer admin.Close()
		fmt.Fprintf(out, "admin HTTP on http://%s (/metrics, /debug/pprof/)\n", admin.Addr())
	}

	// The interrupt is caught before the worker says it serves, so a
	// caller that waits for that line may interrupt it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	srv, err := xrd.Serve(*addrFlag, w)
	if err != nil {
		logger.Error("xrd.listen", "err", err)
		return 1
	}
	defer srv.Close()
	fmt.Fprintf(out, "worker %s serving on %s\n", *nameFlag, srv.Addr())
	logger.Info("worker.ready", "name", *nameFlag, "chunks", len(w.Chunks()), "addr", srv.Addr())

	<-sig
	fmt.Fprintln(out, "\nshutting down")
	return 0
}
