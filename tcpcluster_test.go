package qserv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// This file drives the deployed assembly: a Cluster over WorkerAddrs,
// every transaction of it — DDL, ingest, chunk queries, health probes,
// repair copies — crossing a loopback TCP connection to workers that share
// nothing with the czar, not even a registry pointer.

// tcpWorker stands in for one qserv-worker process. It assembles what
// cmd/qserv-worker does — the cluster's worker configuration over an empty
// registry of the cluster's database and geometry, served on a port — and
// adds the stop and restart a test needs.
type tcpWorker struct {
	t    *testing.T
	name string
	cfg  ClusterConfig
	// addr is the worker's address, fixed by its first start.
	addr    string
	metrics *telemetry.Registry
	w       *worker.Worker
	srv     *xrd.Server
	// count counts the chunk-query transactions the worker serves.
	count *fabricCount
}

// start brings the worker up on what its DataDir holds: nothing, without
// one.
func (tw *tcpWorker) start() {
	tw.t.Helper()
	chunker, err := partition.NewChunker(tw.cfg.Partition)
	if err != nil {
		tw.t.Fatal(err)
	}
	tw.metrics = telemetry.NewRegistry()
	tw.w, err = worker.New(tw.cfg.WorkerConfig(tw.name, tw.metrics), meta.NewRegistry(tw.cfg.Database, chunker))
	if err != nil {
		tw.t.Fatal(err)
	}
	listen := tw.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	tw.count = &fabricCount{inner: tw.w}
	if tw.srv, err = xrd.Serve(listen, tw.count); err != nil {
		tw.t.Fatal(err)
	}
	tw.addr = tw.srv.Addr()
}

// stop is the process dying: connections torn, state gone. Stopping a
// stopped worker does nothing.
func (tw *tcpWorker) stop() {
	if tw.srv == nil {
		return
	}
	tw.srv.Close()
	tw.w.Close()
	tw.srv = nil
}

// tcpCluster starts n workers configured from cfg and a cluster over their
// addresses. The returned stop closes the cluster, then the workers.
func tcpCluster(t *testing.T, cfg ClusterConfig, n int) (*Cluster, []*tcpWorker, func()) {
	t.Helper()
	cfg.Workers, cfg.WorkerAddrs = 0, map[string]string{}
	workers := make([]*tcpWorker, n)
	for i := range workers {
		workers[i] = &tcpWorker{t: t, name: fmt.Sprintf("w%d", i), cfg: cfg}
		workers[i].start()
		cfg.WorkerAddrs[workers[i].name] = workers[i].addr
	}
	stopWorkers := func() {
		for _, tw := range workers {
			tw.stop()
		}
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		stopWorkers()
		t.Fatal(err)
	}
	return cl, workers, func() { cl.Close(); stopWorkers() }
}

// tcpConfig is a remote cluster's configuration tuned like
// availabilityCluster's: fast failure detection.
func tcpConfig(replication int) ClusterConfig {
	cfg := DefaultClusterConfig(0)
	cfg.Replication = replication
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.DeadMisses = 2
	return cfg
}

// paperBattery is one statement of each of the paper's query classes that
// the catalog answers non-trivially, plus a top-K; where the oracle needs
// the statement spelled differently it is the second of the pair.
func paperBattery(cat *Catalog) [][2]string {
	id := cat.Objects[len(cat.Objects)/2].ObjectID
	return [][2]string{
		{fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", id)},                                           // LV1
		{fmt.Sprintf("SELECT taiMidPoint, fluxToAbMag(psfFlux), ra, decl FROM Source WHERE objectId = %d", id)}, // LV2
		{"SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(1, 3, 20, 15) AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30", // LV3
			"SELECT COUNT(*) FROM Object WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, 1, 3, 20, 15) = 1 AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30"},
		{"SELECT COUNT(*) FROM Object"}, // HV1
		{"SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.5"}, // HV2
		{"SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId"},                                                                              // HV3
		{"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(2, 2, 8, 8) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2", // SHV1
			"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 2, 2, 8, 8) = 1 AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2"},
		{"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 7"}, // top-K
		// Every chunk job joins against a replicated table: a worker that
		// was given back its chunks but not its dimension tables fails it.
		{"SELECT COUNT(*) FROM Source s, Filter f WHERE s.filterId = f.filterId"},
	}
}

func checkPaperBattery(t *testing.T, cl *Cluster, oracle *Oracle, cat *Catalog, label string) {
	t.Helper()
	for _, q := range paperBattery(cat) {
		got, err := cl.Query(q[0])
		if err != nil {
			t.Fatalf("%s: %q: %v", label, q[0], err)
		}
		oracleSQL := q[1]
		if oracleSQL == "" {
			oracleSQL = q[0]
		}
		want, err := oracle.Query(oracleSQL)
		if err != nil {
			t.Fatalf("oracle: %q: %v", oracleSQL, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%q answers nothing on this catalog; the check is vacuous", oracleSQL)
		}
		sameAnswer(t, got, want, label+": "+q[0])
	}
}

// tcpCatalog is the LSST catalog the TCP tests ingest, and its oracle.
func tcpCatalog(t *testing.T) (*Catalog, *Oracle) {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: 31, ObjectsPerPatch: 300, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := lsstOracle(cat)
	if err != nil {
		t.Fatal(err)
	}
	return cat, oracle
}

// resources counts what a torn-down deployment must have given back.
func resources(t *testing.T) (goroutines, fds int) {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	return runtime.NumGoroutine(), len(entries)
}

// TestTCPClusterOracleBattery is the deployed system end to end: three
// workers behind TCP, two catalogs ingested over the wire, the paper's query
// classes oracle-checked, a worker restarted empty and healed in place, a
// worker killed mid-query and its replicas restored on the survivors, a
// durable worker restarted at zero copies — and, when all of it is closed,
// not a goroutine or a descriptor more than before.
func TestTCPClusterOracleBattery(t *testing.T) {
	// The first socket a process opens brings the runtime's poller, which
	// stays: open one before counting.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	goroutines, fds := resources(t)

	t.Run("custom catalog", func(t *testing.T) {
		for _, names := range sensorsNames {
			func() {
				cfg := tcpConfig(2)
				cfg.Database = "sensors"
				cl, _, stop := tcpCluster(t, cfg, 3)
				defer stop()
				checkSensorsCatalog(t, cl, names[0], names[1])
			}()
		}
	})

	t.Run("LSST catalog", func(t *testing.T) {
		cat, oracle := tcpCatalog(t)
		cfg := tcpConfig(2)
		// Long enough that the worker restarted below is back before its
		// chunks are re-homed, short enough to wait out for the one that is
		// not.
		cfg.RepairGrace = time.Second
		cfg.WorkerSlots = 1 // a scan backlog on the worker that dies mid-query
		cl, workers, stop := tcpCluster(t, cfg, 3)
		defer stop()
		if err := cl.Load(cat); err != nil {
			t.Fatal(err)
		}
		if cl.WorkerByName("w0") != nil || cl.Endpoint("w0") != nil || len(cl.Workers) != 0 {
			t.Error("a remote cluster hands out worker processes")
		}
		checkPaperBattery(t, cl, oracle, cat, "over TCP")

		// The workers are loaded now; a second czar has no metadata for
		// what they hold and must not ingest a second copy beside it.
		if second, err := NewCluster(cl.Config); !errors.Is(err, ErrWorkerHoldsData) {
			if err == nil {
				second.Close()
			}
			t.Fatalf("NewCluster over loaded workers: %v, want ErrWorkerHoldsData", err)
		}
		for _, err := range []error{cl.AddWorker("w9"), cl.RemoveWorker("w0"), cl.RestartWorker("w0")} {
			if !errors.Is(err, ErrRemoteCluster) {
				t.Errorf("membership change on a remote cluster: %v, want ErrRemoteCluster", err)
			}
		}

		// A worker that comes back with nothing — no rows, no replicated
		// tables, not even the catalog's table metadata — is refilled where
		// it stands.
		hollow := workers[2]
		held := len(cl.Placement.ChunksOn(hollow.name))
		if held == 0 {
			t.Fatal("worker holds no chunks; test is vacuous")
		}
		hollow.stop()
		hollow.start()
		deadline := time.Now().Add(30 * time.Second)
		for {
			// Kicked until it lands: an audit whose inventory read meets the
			// dial backoff the downtime armed takes the worker for intact,
			// and the repairer's own next sweep is seconds away.
			cl.member.CheckNow()
			st := cl.Status()
			if st.Repair.ChunksHealed >= held && st.Repair.ChunksPending == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("hollow worker not healed: %d of %d chunks (repair %+v)", st.Repair.ChunksHealed, held, st.Repair)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if st := cl.Status(); st.Repair.ChunksRepaired != 0 {
			t.Fatalf("in-place healing re-homed %d chunks; placement should not move", st.Repair.ChunksRepaired)
		}
		if got := len(hollow.w.Chunks()); got != held || len(cl.Placement.ChunksOn(hollow.name)) != held {
			t.Fatalf("healed worker holds %d chunks, placement gives it %d, it had %d",
				got, len(cl.Placement.ChunksOn(hollow.name)), held)
		}
		workerState(t, cl, hollow.name, WorkerAlive, 10*time.Second)
		checkPaperBattery(t, cl, oracle, cat, "after in-place heal")

		// A worker that dies under a query: the answer holds, and the
		// survivors end up with every chunk at full replication.
		for _, tw := range workers {
			tw.w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(10*time.Microsecond))
		}
		q, err := cl.Submit(context.Background(), "SELECT COUNT(*) FROM Object WHERE test_slow(uFlux_PS) > 1e-31")
		if err != nil {
			t.Fatal(err)
		}
		victim := workers[1]
		deadline = time.Now().Add(30 * time.Second)
		for victim.w.ActiveJobs() == 0 || victim.w.QueueLen() == 0 {
			if p := q.Progress(); p.Done || time.Now().After(deadline) {
				t.Fatalf("query never mid-flight on %s (progress %+v)", victim.name, p)
			}
			time.Sleep(100 * time.Microsecond)
		}
		victim.stop()
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("query with mid-flight worker death failed: %v", err)
		}
		want, err := oracle.Query("SELECT COUNT(*) FROM Object WHERE uFlux_PS > 1e-31")
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, res, want, "mid-flight death")
		if res.Retries == 0 {
			t.Error("mid-flight death produced no failovers (Retries = 0)")
		}
		// Nothing re-homes within the grace, and the audit after it would
		// otherwise wait for the repairer's next periodic sweep.
		workerState(t, cl, victim.name, WorkerDead, 10*time.Second)
		time.Sleep(cfg.RepairGrace)
		cl.member.CheckNow()
		fullyReplicatedOff(t, cl, victim.name, 30*time.Second)
		checkPaperBattery(t, cl, oracle, cat, "after re-replication")
	})

	t.Run("durable restart", func(t *testing.T) {
		cat, oracle := tcpCatalog(t)
		cfg := tcpConfig(2)
		cfg.DataDir = t.TempDir()
		cfg.RepairGrace = 30 * time.Second
		cl, workers, stop := tcpCluster(t, cfg, 3)
		defer stop()
		if err := cl.Load(cat); err != nil {
			t.Fatal(err)
		}
		back := workers[0]
		held := len(cl.Placement.ChunksOn(back.name))
		epoch := cl.Status().PlacementEpoch
		back.stop()
		back.start()
		if got := len(back.w.Chunks()); got != held || held == 0 {
			t.Fatalf("worker recovered %d chunks from its data dir, placement gives it %d", got, held)
		}
		cl.member.CheckNow()
		workerState(t, cl, back.name, WorkerAlive, 10*time.Second)
		awaitRepairQuiet(t, cl, 10*time.Second)
		checkPaperBattery(t, cl, oracle, cat, "after durable restart")
		if st := cl.Status(); st.Repair.TablesCopied != 0 || st.Repair.ChunksHealed != 0 ||
			st.Repair.ChunksRepaired != 0 || st.PlacementEpoch != epoch {
			t.Fatalf("durable restart moved data: repair %+v, placement epoch %d -> %d", st.Repair, epoch, st.PlacementEpoch)
		}
	})

	// Everything above is closed; what it started must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, f := resources(t)
		if g <= goroutines && f <= fds {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("after Close: %d goroutines (%d before), %d descriptors (%d before)\n%s",
				g, goroutines, f, fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// seriesNames lists the metric families a registry exposes.
func seriesNames(reg *telemetry.Registry) map[string]bool {
	names := map[string]bool{}
	for _, line := range strings.Split(string(reg.Exposition()), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names[name] = true
		}
	}
	return names
}

// TestMetricNamesMatchAcrossAssemblies: a deployment's /metrics — the
// czar's registry and a worker's — carry, name for name, the series an
// in-process cluster registers in its one registry. Labels are set aside:
// an in-process cluster has several workers' worth of them.
func TestMetricNamesMatchAcrossAssemblies(t *testing.T) {
	// Both sides durable by configuration, so the store's series are
	// compared too; the environment overrides would make only one side so.
	t.Setenv("QSERV_DATADIR", "")
	t.Setenv("QSERV_MEMBUDGET", "")
	cat := ingestTestCatalog(t)
	drive := func(cl *Cluster) {
		t.Helper()
		if err := cl.Load(cat); err != nil {
			t.Fatal(err)
		}
		startFrontend(t, cl, DefaultFrontendConfig())
		for _, sql := range []string{"SELECT COUNT(*) FROM Object", "SELECT * FROM Object WHERE objectId = 42"} {
			if _, err := cl.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}

	local := DefaultClusterConfig(2)
	local.DataDir = t.TempDir()
	inproc, err := NewCluster(local)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inproc.Close)
	drive(inproc)

	remote := tcpConfig(1)
	remote.DataDir = t.TempDir()
	cl, workers, stop := tcpCluster(t, remote, 2)
	t.Cleanup(stop)
	drive(cl)

	want := seriesNames(inproc.Metrics())
	got := seriesNames(cl.Metrics())
	for name := range seriesNames(workers[0].metrics) {
		got[name] = true
	}
	var diff []string
	for name := range want {
		if !got[name] {
			diff = append(diff, "missing from the deployment: "+name)
		}
	}
	for name := range got {
		if !want[name] {
			diff = append(diff, "missing in process: "+name)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 || len(want) < 20 {
		t.Fatalf("%d series in process, %d deployed:\n%s", len(want), len(got), strings.Join(diff, "\n"))
	}
}
