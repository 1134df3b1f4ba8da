// Package qserv is the public API of this reproduction of "Qserv: a
// distributed shared-nothing database for the LSST catalog" (Wang,
// Monkewitz, Lim, Becla; SC'11).
//
// A Cluster assembles the full system of the paper's Figure 1: a czar
// (master frontend with query rewriting, the director-key secondary
// index and result merging), N workers (each an embedded SQL engine
// holding spatially partitioned chunk tables plus overlap), and an xrd
// fabric (redirector + data-addressed file transactions) connecting
// them.
//
// Data definition is declarative and schema-agnostic: a CatalogSpec
// describes tables by kind (director / child partitioned by the
// director key / replicated), CreateTables installs it, and Ingest
// streams rows through a single partition pass that ships batches to
// all replica workers concurrently over the fabric. Quickstart:
//
//	cluster, _ := qserv.NewCluster(qserv.DefaultClusterConfig(8))
//	defer cluster.Close()
//	_ = cluster.CreateTables(qserv.LSSTSpec())
//	_, _ = cluster.Ingest("Object", objectRows)   // any RowSource
//	res, _ := cluster.Query("SELECT COUNT(*) FROM Object")
//
// Queries are asynchronous sessions underneath (see Submit): the
// multi-hour shared scans the system is designed around are submitted,
// observed through Progress and streaming Rows, listed (Running), and
// killed (Cancel, Kill) — with cancellation propagated down to the
// workers' scan lanes so a dead query's slots actually free.
package qserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/czar"
	"repro/internal/datagen"
	"repro/internal/member"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/planopt"
	"repro/internal/qcache"
	"repro/internal/telemetry"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// defaultDatabase names the catalog when ClusterConfig.Database is
// empty — the paper's catalog name.
const defaultDatabase = "LSST"

// ClusterConfig sizes a cluster. Exactly one of Workers and WorkerAddrs
// names its members.
type ClusterConfig struct {
	// Workers is the number of worker nodes NewCluster starts in this
	// process, each behind an in-process fabric endpoint.
	Workers int
	// WorkerAddrs names the members of a remote cluster instead: worker
	// name -> host:port of a running qserv-worker (or any xrd.Serve over a
	// worker.New), reached over the TCP fabric. The workers must be empty;
	// the fields below that configure a worker process (slots, DataDir,
	// memory budget) are then theirs to set, through
	// WorkerConfig, not this cluster's.
	WorkerAddrs map[string]string
	// Replication is the number of workers holding each chunk.
	Replication int
	// Database is the catalog database name ("LSST" when empty).
	Database string
	// Partition is the two-level partitioning geometry.
	Partition partition.Config
	// WorkerSlots is the per-worker parallel scan-query limit (paper: 4).
	WorkerSlots int
	// InteractiveSlots is the per-worker count of dedicated executors
	// for interactive (index-dive) chunk queries, which never wait
	// behind full scans.
	InteractiveSlots int
	// MergeParallelism bounds concurrent result-stream checking (and the
	// session combines it trips) at the czar, across all in-flight user
	// queries. 1 reproduces the paper's serialized result collection (the
	// section 7.6 bottleneck); higher values pipeline it with chunk
	// fetches.
	MergeParallelism int
	// TopKPushdown ships ORDER BY + LIMIT to workers so each chunk
	// returns at most K rows and the czar's session combines them down to
	// the best K instead of holding every matching row.
	TopKPushdown bool
	// HealthInterval is the failure detector's probe period (0 = 200ms):
	// a czar-side detector pings every worker over the fabric's /ping
	// transaction and maintains alive/suspect/dead state that dispatch,
	// ingest placement, and Cluster.Status consult.
	HealthInterval time.Duration
	// DeadMisses is the consecutive-miss threshold for the dead state
	// (0 = 3); one miss makes a worker suspect, and a probe round is
	// bounded at 2 s.
	DeadMisses int
	// SelfHeal enables the replication manager: when a worker dies, the
	// chunks it held are re-replicated from surviving replicas onto
	// live workers (verified copy, then an atomic per-chunk placement
	// update), restoring the replication factor without operator
	// action. DefaultClusterConfig turns it on.
	SelfHeal bool
	// DataDir enables durable chunk storage: each worker persists its
	// ingested batches and /repl installs under DataDir/<worker-name>
	// (one append-only, checksummed file per chunk unit, see
	// internal/chunkstore) and recovers them on restart, so a revived
	// worker serves its chunks without any re-replication. Empty keeps
	// chunk data purely in memory. The QSERV_DATADIR environment
	// variable, when set and DataDir is empty, supplies a parent
	// directory under which NewCluster creates a unique data directory
	// (letting a test suite run durably without code changes).
	DataDir string
	// RepairGrace holds chunk re-homing off a freshly dead worker for
	// this long, giving a durable worker time to restart with its data
	// intact before the replication manager starts copying. Zero keeps
	// the PR-5 behavior: repair begins at the first sweep after death.
	RepairGrace time.Duration
	// ChunkPruning enables statistics-based chunk pruning in the czar's
	// routing tier (internal/planopt): per-chunk min/max column
	// statistics recorded at ingest eliminate chunks whose value ranges
	// are disjoint from the query's range predicates. Index dives and
	// spatial pruning are always on — they derive from the query alone.
	// DefaultClusterConfig turns it on.
	ChunkPruning bool
	// ResultCacheBytes budgets the czar-level result cache
	// (internal/qcache): repeat queries are answered from cached rows,
	// invalidated automatically by placement-epoch or ingest-generation
	// changes, without dispatching a single chunk job. 0 disables the
	// cache. DefaultClusterConfig sets 64 MiB.
	ResultCacheBytes int64
	// WorkerMemoryBudget caps each worker's resident chunk-table
	// footprint in bytes: above it, cold chunks are evicted back to the
	// worker's durable store (LRU) and re-materialized on first touch,
	// so workers serve catalogs larger than their memory. 0 means
	// unbudgeted (everything stays resident). A budget needs a durable
	// store to page against: when set with no DataDir (and no
	// QSERV_DATADIR), NewCluster creates a private temporary data
	// directory and removes it on Close. The QSERV_MEMBUDGET environment
	// variable, when set and this field is 0, supplies the budget
	// (letting a test suite run memory-constrained without code
	// changes).
	WorkerMemoryBudget int64
	// DisableTelemetry turns the observability subsystem off: no metrics
	// registry, no per-query span tracing, no trace retention. The
	// telemetry hot paths are nil-safe no-ops when disabled, so this
	// exists for overhead measurement (a cluster with it against one
	// without) and for internal/simcluster, not for recovering capacity.
	DisableTelemetry bool
	// AdminAddr, when non-empty, serves the admin HTTP listener on that
	// address: Prometheus text exposition at /metrics and the standard
	// net/http/pprof profiling endpoints at /debug/pprof/. Use
	// "127.0.0.1:0" to bind an ephemeral port (see Cluster.AdminAddr).
	AdminAddr string
	// SlowQueryThreshold emits one structured warn line (with the span
	// summary when tracing is on) for every query at least this slow;
	// 0 disables the slow-query log.
	SlowQueryThreshold time.Duration
}

// DefaultClusterConfig returns a laptop-scale configuration: a coarse
// 18-stripe partitioning (instead of the paper's 85) so small synthetic
// catalogs still put meaningful row counts in each chunk.
func DefaultClusterConfig(workers int) ClusterConfig {
	return ClusterConfig{
		Workers:     workers,
		Replication: 1,
		Database:    defaultDatabase,
		Partition: partition.Config{
			NumStripes:             18,
			NumSubStripesPerStripe: 4,
			Overlap:                0.5,
		},
		WorkerSlots:      4,
		InteractiveSlots: 2,
		MergeParallelism: 8,
		TopKPushdown:     true,
		HealthInterval:   200 * time.Millisecond,
		SelfHeal:         true,
		ChunkPruning:     true,
		ResultCacheBytes: 64 << 20,
	}
}

// Validate checks the configuration.
func (c ClusterConfig) Validate() error {
	members := c.Workers
	if len(c.WorkerAddrs) > 0 {
		if c.Workers > 0 {
			return fmt.Errorf("qserv: set Workers (in-process) or WorkerAddrs (remote), not both")
		}
		members = len(c.WorkerAddrs)
	}
	if members < 1 {
		return fmt.Errorf("qserv: Workers must be >= 1 (or WorkerAddrs non-empty)")
	}
	if c.Replication < 1 {
		return fmt.Errorf("qserv: Replication must be >= 1")
	}
	if c.Replication > members {
		return fmt.Errorf("qserv: Replication %d exceeds Workers %d", c.Replication, members)
	}
	return c.Partition.Validate()
}

// WorkerConfig derives one worker's configuration from the cluster's:
// NewCluster calls it for every worker it starts and qserv-worker for the
// one it is, so a deployed worker runs the same lanes and waits out the same
// result timeout as an in-process one. The worker's store lives under
// DataDir/<name>; metrics is the registry it exports into (nil for none).
func (c ClusterConfig) WorkerConfig(name string, metrics *telemetry.Registry) worker.Config {
	wcfg := worker.DefaultConfig(name)
	wcfg.Slots = c.WorkerSlots
	if c.DataDir != "" {
		wcfg.DataDir = filepath.Join(c.DataDir, name)
	}
	wcfg.MemoryBudgetBytes = c.WorkerMemoryBudget
	if c.InteractiveSlots > 0 {
		wcfg.InteractiveSlots = c.InteractiveSlots
	}
	wcfg.Metrics = metrics
	wcfg.Trace = metrics != nil
	return wcfg
}

// ErrRemoteCluster is what AddWorker, RemoveWorker and RestartWorker
// return on a cluster built over WorkerAddrs: its workers are processes
// someone else starts and stops, and its membership is that address list.
var ErrRemoteCluster = errors.New("qserv: a remote cluster's membership is its WorkerAddrs list; its workers are not this process's to start or stop")

// ErrWorkerHoldsData is NewCluster's refusal of a remote worker that
// already holds chunks: this czar has no metadata for them (placement,
// director index and chunk statistics live in the czar that ingested them
// and are not persisted), and ingesting again would append a second copy
// of the catalog to the first.
var ErrWorkerHoldsData = errors.New("qserv: worker already holds chunks this czar has no metadata for; start the workers empty (czar metadata recovery is not implemented)")

// Cluster is a fully assembled Qserv deployment: a czar over a set of
// fabric endpoints, which are in-process workers (ClusterConfig.Workers) or
// TCP connections to remote ones (ClusterConfig.WorkerAddrs). Everything
// but starting and stopping a worker process — DDL, ingest, queries,
// health, repair — speaks fabric transactions and is the same code on
// both.
type Cluster struct {
	Config     ClusterConfig
	Chunker    *partition.Chunker
	Registry   *meta.Registry
	Redirector *xrd.Redirector
	Placement  *meta.Placement
	Index      *meta.ObjectIndex
	// Stats holds the per-chunk min/max column statistics ingest
	// records for the routing tier's cost-based pruning.
	Stats *meta.ChunkStats
	// Workers is the set of worker processes this cluster started, in join
	// order; empty on a remote cluster. It is mutated by AddWorker and
	// RemoveWorker under memberMu; direct iteration is only safe while
	// no membership change is concurrent (use WorkerNames otherwise).
	Workers []*worker.Worker
	Czar    *czar.Czar

	// names is the membership in join order and endpoints each member's
	// fabric endpoint; workers holds, by name, the processes behind the
	// in-process ones.
	names     []string
	endpoints map[string]xrd.Endpoint
	workers   map[string]*worker.Worker
	client    *xrd.Client
	closeOnce sync.Once

	// member is the availability subsystem: failure detector plus
	// (with SelfHeal) the replication manager.
	member *member.Manager

	// ingestMu guards the ingest state machine: ingesting holds tables
	// with an ingest in flight, ingested the tables already loaded (or
	// sealed by a partial failure) — re-ingest would duplicate rows,
	// so it is rejected — and specs the encoded catalog specs CreateTables
	// installed, in order, for workers that join or come back empty.
	// memberMu guards the membership (names, workers, endpoints, the
	// Workers slice, removing) and serializes chunk
	// placement decisions with membership changes. removing marks
	// workers mid-RemoveWorker: they no longer receive new chunk
	// placements or repair copies, so their drain converges. removalMu
	// serializes whole removals, keeping the replication-floor check
	// atomic with the membership mutation it guards.
	ingestMu  sync.Mutex
	ingested  map[string]bool
	ingesting map[string]bool
	specs     [][]byte
	memberMu  sync.Mutex
	removing  map[string]bool
	removalMu sync.Mutex

	// ownsDataDir is the temporary data directory NewCluster created for
	// a memory budget with no configured DataDir; Close removes it.
	ownsDataDir string

	// metrics is the cluster-wide registry every subsystem exports into;
	// nil with DisableTelemetry. admin is the HTTP listener serving it
	// (nil unless AdminAddr is set).
	metrics *telemetry.Registry
	admin   *telemetry.AdminServer
}

// NewCluster builds the cluster skeleton with an empty catalog; call
// CreateTables and Ingest to install data (or the deprecated Load for
// the synthetic LSST catalog). Over WorkerAddrs it refuses a worker that
// already holds chunks (ErrWorkerHoldsData).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	chunker, err := partition.NewChunker(cfg.Partition)
	if err != nil {
		return nil, err
	}
	if cfg.Database == "" {
		cfg.Database = defaultDatabase
	}
	registry := meta.NewRegistry(cfg.Database, chunker)
	cl := &Cluster{
		Chunker:    chunker,
		Registry:   registry,
		Redirector: xrd.NewRedirector(),
		Placement:  meta.NewPlacement(),
		Index:      meta.NewObjectIndex(),
		Stats:      meta.NewChunkStats(),
		endpoints:  map[string]xrd.Endpoint{},
		workers:    map[string]*worker.Worker{},
		ingested:   map[string]bool{},
		ingesting:  map[string]bool{},
		removing:   map[string]bool{},
	}
	remote := len(cfg.WorkerAddrs) > 0
	// The environment overrides configure worker processes, so they apply
	// only where this cluster starts them.
	if !remote && cfg.DataDir == "" {
		if parent := os.Getenv("QSERV_DATADIR"); parent != "" {
			dir, err := os.MkdirTemp(parent, "qserv-cluster-")
			if err != nil {
				return nil, fmt.Errorf("qserv: QSERV_DATADIR: %w", err)
			}
			cfg.DataDir = dir
		}
	}
	if !remote && cfg.WorkerMemoryBudget == 0 {
		if env := os.Getenv("QSERV_MEMBUDGET"); env != "" {
			b, err := strconv.ParseInt(env, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("qserv: QSERV_MEMBUDGET: %w", err)
			}
			cfg.WorkerMemoryBudget = b
		}
	}
	if !remote && cfg.WorkerMemoryBudget > 0 && cfg.DataDir == "" {
		// A memory budget pages against a durable store; give the cluster
		// a private one when the caller did not.
		dir, err := os.MkdirTemp("", "qserv-mem-")
		if err != nil {
			return nil, fmt.Errorf("qserv: memory-budget data dir: %w", err)
		}
		cfg.DataDir = dir
		cl.ownsDataDir = dir
	}
	cl.Config = cfg
	cl.client = xrd.NewClient(cl.Redirector)
	if !cfg.DisableTelemetry {
		// One registry for the whole cluster: czar, membership, cache,
		// fabric and frontend export into it, and so do the workers this
		// process runs (a remote worker serves its own), so one /metrics
		// scrape sees every subsystem.
		cl.metrics = telemetry.NewRegistry()
		xrdCounters := func(pick func(xrd.LaneCounters) int64) func() int64 {
			return func() int64 { return pick(xrd.Counters()) }
		}
		cl.metrics.CounterFunc("qserv_xrd_dials_total", "fabric endpoint dials attempted",
			xrdCounters(func(c xrd.LaneCounters) int64 { return c.Dials }))
		cl.metrics.CounterFunc("qserv_xrd_dial_failures_total", "fabric endpoint dials that failed",
			xrdCounters(func(c xrd.LaneCounters) int64 { return c.DialFailures }))
		cl.metrics.CounterFunc("qserv_xrd_backoff_suppressed_total", "fabric dials fast-failed by backoff",
			xrdCounters(func(c xrd.LaneCounters) int64 { return c.BackoffSuppressed }))
	}
	if remote {
		names := make([]string, 0, len(cfg.WorkerAddrs))
		for name := range cfg.WorkerAddrs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cl.join(name, xrd.NewTCPEndpoint(name, cfg.WorkerAddrs[name]))
			inv, err := cl.inventory(name)
			if err == nil && len(inv.Chunks) > 0 {
				err = fmt.Errorf("%w: worker %s at %s holds %d", ErrWorkerHoldsData, name, cfg.WorkerAddrs[name], len(inv.Chunks))
			}
			if err != nil {
				cl.Close()
				return nil, err
			}
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w, err := cl.startWorker(fmt.Sprintf("worker-%03d", i))
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Workers = append(cl.Workers, w)
		cl.workers[w.Name()] = w
		cl.join(w.Name(), xrd.NewLocalEndpoint(w.Name(), w))
	}
	ccfg := czar.DefaultConfig("czar-0")
	ccfg.MergeParallelism = cfg.MergeParallelism
	ccfg.TopKPushdown = cfg.TopKPushdown
	cl.Czar = czar.New(ccfg, registry, cl.Index, cl.Placement, cl.Redirector)
	if !cfg.DisableTelemetry {
		cl.Czar.SetTelemetry(czar.Telemetry{
			Metrics:            cl.metrics,
			Trace:              true,
			Ring:               telemetry.NewTraceRing(128),
			SlowQueryThreshold: cfg.SlowQueryThreshold,
		})
	}
	// The routing tier: index dives and spatial pruning always;
	// statistics pruning behind the knob. The result cache rides above
	// it when budgeted.
	cl.Czar.SetRouter(planopt.New(registry, cl.Index, cl.Stats,
		planopt.Config{Pruning: cfg.ChunkPruning}))
	if cfg.ResultCacheBytes > 0 {
		cl.Czar.SetResultCache(qcache.New(cfg.ResultCacheBytes))
	}

	// The availability subsystem: a failure detector polling every
	// worker over /ping, and (with SelfHeal) a replication manager that
	// re-homes a dead worker's chunks onto survivors. The czar consults
	// it for health-aware dispatch and SHOW WORKERS.
	cl.member = member.NewManager(member.Config{
		Detector: member.DetectorConfig{
			Interval:  cfg.HealthInterval,
			DeadAfter: cfg.DeadMisses,
		},
		Repair: member.RepairConfig{
			Factor:     cfg.Replication,
			Tables:     cl.partitionedTables,
			Candidates: cl.eligibleWorkerNames,
			Prepare:    cl.prepareRepairTarget,
			Rehome:     cl.rehome,
			DeadGrace:  cfg.RepairGrace,
		},
		SelfHeal: cfg.SelfHeal,
	}, cl.client, cl.Placement)
	cl.member.Watch(cl.WorkerNames()...)
	cl.Czar.SetMembership(cl.member)
	cl.member.RegisterMetrics(cl.metrics)
	cl.member.Start()
	if cfg.AdminAddr != "" {
		admin, err := telemetry.ServeAdmin(cfg.AdminAddr, cl.metrics)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("qserv: admin listener: %w", err)
		}
		cl.admin = admin
	}
	return cl, nil
}

// join makes an endpoint a member: named in the membership and reachable
// through the redirector. Callers hold memberMu once the cluster is shared.
func (cl *Cluster) join(name string, ep xrd.Endpoint) {
	cl.names = append(cl.names, name)
	cl.endpoints[name] = ep
	cl.Redirector.Register(ep, "/result")
}

// startWorker starts a worker process of this cluster. It gets a registry
// of its own, as a deployed qserv-worker has: what it knows of the catalog
// arrives over the fabric (/load/spec) or comes back from its store, never
// through a pointer shared with the planner.
func (cl *Cluster) startWorker(name string) (*worker.Worker, error) {
	return worker.New(cl.Config.WorkerConfig(name, cl.metrics), meta.NewRegistry(cl.Config.Database, cl.Chunker))
}

// fabricTimeout bounds one fabric transaction the cluster makes on its own
// account (an inventory read, a spec write, a replicated table's verified
// copy), a dial included.
const fabricTimeout = 30 * time.Second

// inventory reads what a worker holds.
func (cl *Cluster) inventory(name string) (xrd.Inventory, error) {
	var inv xrd.Inventory
	ctx, done := context.WithTimeout(context.Background(), fabricTimeout)
	defer done()
	data, err := cl.client.ReadFrom(ctx, name, xrd.InventoryPath)
	if err == nil {
		err = json.Unmarshal(data, &inv)
	}
	if err != nil {
		return inv, fmt.Errorf("qserv: inventory of worker %s: %w", name, err)
	}
	return inv, nil
}

// Metrics returns the cluster-wide telemetry registry, or nil with
// DisableTelemetry. Callers may register their own series into it; it
// is what /metrics on the admin listener serves.
func (cl *Cluster) Metrics() *telemetry.Registry { return cl.metrics }

// AdminAddr returns the bound address of the admin HTTP listener
// (/metrics + /debug/pprof/), or "" when ClusterConfig.AdminAddr was
// empty.
func (cl *Cluster) AdminAddr() string {
	if cl.admin == nil {
		return ""
	}
	return cl.admin.Addr()
}

// Close shuts the cluster down: the availability subsystem first (no
// more probes or repairs), then the czar — rejecting new submissions,
// canceling every in-flight query, and draining them (so worker slots
// are released, not abandoned) — then the workers this process runs and
// the connections to those it does not. Close is idempotent; concurrent
// and repeated calls are safe.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		if cl.admin != nil {
			cl.admin.Close()
		}
		if cl.member != nil {
			cl.member.Close()
		}
		if cl.Czar != nil {
			cl.Czar.Close()
		}
		cl.memberMu.Lock()
		workers := append([]*worker.Worker(nil), cl.Workers...)
		var conns []io.Closer // the TCP endpoints' cached connections
		for _, ep := range cl.endpoints {
			if c, ok := ep.(io.Closer); ok {
				conns = append(conns, c)
			}
		}
		cl.memberMu.Unlock()
		for _, w := range workers {
			w.Close()
		}
		for _, c := range conns {
			c.Close()
		}
		if cl.ownsDataDir != "" {
			os.RemoveAll(cl.ownsDataDir)
		}
	})
}

// Endpoint returns an in-process worker's fabric endpoint (failure
// injection), or nil — always, on a remote cluster.
func (cl *Cluster) Endpoint(name string) *xrd.LocalEndpoint {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	ep, _ := cl.endpoints[name].(*xrd.LocalEndpoint)
	return ep
}

// WorkerByName returns an in-process worker by its cluster identity, or
// nil — always, on a remote cluster.
func (cl *Cluster) WorkerByName(name string) *worker.Worker {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	return cl.workers[name]
}

// Catalog is a synthesized LSST Object/Source catalog, accepted by the
// deprecated Load wrapper.
type Catalog = datagen.Catalog

// Load installs the synthetic LSST catalog.
//
// Deprecated: Load is a thin compatibility wrapper over the spec API —
// CreateTables(LSSTSpec()) followed by one Ingest per table — and is
// oracle-equivalent to calling those directly. New code (and any
// non-LSST schema) should use CreateTables and Ingest.
func (cl *Cluster) Load(cat *Catalog) error {
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		return err
	}
	if _, err := cl.Ingest("Object", objectSource(cat)); err != nil {
		return err
	}
	if _, err := cl.Ingest("Source", sourceSource(cat)); err != nil {
		return err
	}
	if _, err := cl.Ingest("Filter", filterSource()); err != nil {
		return err
	}
	return nil
}
