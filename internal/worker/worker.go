// Package worker implements a Qserv worker node: an Xrootd data server
// (via the xrd.Handler "ofs plugin" interface) wrapping a local SQL
// engine that stores chunk tables (paper sections 5.1.2 and 5.4).
//
// A worker accepts dispatches written to /query2/CC paths — the chunk
// queries of one user query for every chunk the czar sends it, the
// statements once (see txn) — and publishes each chunk's result as a
// package dump result stream readable at /result/H, where H is the MD5 hash
// of that chunk's one-chunk payload. A chunk query belongs to the query that
// wrote it: its result is held until that query reads it (or cancels it),
// then dropped, and at most a window of a dispatch's chunks is held at
// once. The worker caches no outcomes and shares none between queries;
// queries share a chunk's read through the gang alone.
//
// Scheduling is two-class (paper section 4.3): interactive chunk
// queries (secondary-index dives, marked by the czar with a "-- CLASS:
// INTERACTIVE" header) run FIFO on dedicated InteractiveSlots so they
// never wait behind table scans, while full-scan chunk queries are
// grouped by chunk into gangs that drain into Slots scan lanes. A gang is
// the shared scan: its members start together, the chunk's unit is
// materialized once for all of them and stays pinned while they run, so
// concurrent scans of one chunk share a single read of it.
//
// Spatial self-join queries carry a "-- SUBCHUNKS:" header; the job
// builds the listed subchunk and overlap-subchunk tables on the fly, the
// first time a statement names one, holds them while its statements run
// once per listed subchunk, and lets them go when it ends (section 5.4:
// workers are "free to drop the tables afterwards"). They enter no catalog.
//
// What a worker stores is kept in one unit table (units.go): a record per
// stored (table, chunk) or replicated table, which is the inventory and
// owns the unit's residency.
// Worker-side table names are spelled and read back by internal/meta
// alone; a dispatch resolves the names its statements use once.
package worker

import (
	"cmp"
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/xrd"
)

// Config controls a worker.
type Config struct {
	// Name is the worker's cluster identity.
	Name string
	// Slots is the number of scan-class chunk-query gangs executed in
	// parallel (paper: 4 queries per node). Queued gangs beyond that
	// wait FIFO.
	Slots int
	// InteractiveSlots is the number of dedicated executors for
	// interactive-class chunk queries; interactive queue wait is
	// bounded by other interactive jobs only, never by scans.
	InteractiveSlots int
	// QueueDepth bounds each lane's queue; writes beyond it fail,
	// which the czar surfaces as dispatch errors.
	QueueDepth int
	// ResultTimeout bounds how long a result read blocks waiting for
	// execution to finish.
	ResultTimeout time.Duration
	// DataDir enables the durable chunk store (internal/chunkstore):
	// every ingest batch and /repl install is persisted under this
	// directory, and New recovers the worker's inventory from it, so a
	// restarted worker rejoins serving its chunks with zero copies.
	// Chunk tables are materialized lazily from the stored segments on
	// first touch. Empty keeps the pre-durability behavior: chunk data
	// lives only in memory.
	DataDir string
	// MemoryBudgetBytes bounds the resident engine footprint of the
	// worker's stored units (chunk tables, overlap companions, and
	// replicated tables, hash indexes included). Above the budget, cold
	// units are evicted back to their segment files in LRU order and
	// re-materialized on the next touch, so the worker serves working
	// sets larger than its memory. 0 means materialize lazily but never
	// evict. Requires DataDir (an in-memory worker has nowhere to evict
	// to; the budget is ignored without a store).
	MemoryBudgetBytes int64
	// Metrics, when set, is the telemetry registry this worker exports
	// into; every series carries a worker=<Name> label so an in-process
	// cluster's workers share one registry. Nil disables worker
	// metrics (all handles stay nil-safe no-ops).
	Metrics *telemetry.Registry
	// Trace ships per-job span subtrees (queue wait, exec) back to the
	// czar piggybacked on the result bytes of the existing /result
	// transaction, for stitching into the query's distributed trace.
	Trace bool
}

// DefaultConfig mirrors the paper's worker configuration.
func DefaultConfig(name string) Config {
	return Config{
		Name:             name,
		Slots:            4,
		InteractiveSlots: 2,
		QueueDepth:       4096,
		ResultTimeout:    2 * time.Minute,
	}
}

// maxGangSize caps how many same-chunk scan jobs one slot starts together;
// the surplus stays queued as a gang of its own for a later pop, bounding
// per-slot concurrency under bursts.
const maxGangSize = 16

// JobReport records one executed chunk query for experiments (queue
// behavior drives the paper's Figure 14 analysis).
type JobReport struct {
	Chunk      partition.ChunkID
	Class      core.QueryClass
	Hash       string
	QueuedAt   time.Time
	StartedAt  time.Time
	FinishedAt time.Time
	Stats      sqlengine.ExecStats
	// ConvoyJoins is 1 for a job that started in a gang another job led —
	// it rode the leader's read of the chunk — and 0 otherwise. (The name
	// is the one bench/ reads.)
	ConvoyJoins int
	ResultLen   int
	Err         error
}

// QueueWait returns how long the job sat in the FIFO queue.
func (r JobReport) QueueWait() time.Duration { return r.StartedAt.Sub(r.QueuedAt) }

// ExecTime returns the job's execution time.
func (r JobReport) ExecTime() time.Duration { return r.FinishedAt.Sub(r.StartedAt) }

// Worker is one Qserv worker node.
type Worker struct {
	cfg      Config
	engine   *sqlengine.Engine
	db       *sqlengine.Database // the catalog database (registry.DB), where every unit's tables live
	registry *meta.Registry

	interactive chan *job
	scanq       *gangQueue
	wg          sync.WaitGroup
	stop        chan struct{}

	mu sync.Mutex
	// reports is a ring of the last maxReports executions, oldest at
	// reportHead once full.
	reports    []JobReport
	reportHead int
	// jobs holds, by result hash and writing query, every chunk query that
	// is queued, running, or finished with an outcome its query has yet to
	// read.
	jobs   map[jobKey]*job
	active int // jobs currently executing

	// loadMu serializes /load batch application (see ingest.go).
	loadMu sync.Mutex

	// store is the durable chunk store, nil for in-memory workers (see
	// durable.go). Mutated only during New; loadMu serializes the
	// writes that flow through it afterwards.
	store *chunkstore.Store

	// units is the unit table (see units.go): one record per stored
	// (table, chunk) or replicated table — the inventory — owning the
	// unit's residency.
	units *unitTable

	// canceled remembers the keys recent kills found no job under (see
	// cancelRing): a write that lands after the kill meant for it registers
	// none of them.
	canceled cancelRing

	// rowBufs recycles the buffers jobs encode their result rows into (a
	// *[]byte each): a job frames its stream into a slice of its own, so
	// what the next job finds is a buffer already grown to a result's size.
	rowBufs sync.Pool

	// metrics holds the worker's owned telemetry series (nil-safe
	// handles); traceOn gates span-trailer shipping.
	metrics workerMetrics
	traceOn atomic.Bool
}

// maxReports bounds Worker.reports: enough for any experiment to see
// the whole of its own run, small enough that a long-lived worker's
// execution log stops growing.
const maxReports = 1 << 14

// job states, guarded by Worker.mu.
const (
	jobPending = iota // registered, waiting for its transaction's window
	jobQueued
	jobRunning
	jobCanceled // canceled while queued; executors skip it
	jobDone     // outcome published; held until its query reads it
)

// jobKey names a chunk query on the worker: the hash of its payload and the
// query that wrote it (the qid riding the path, see xrd.WithQID). Every bare
// path is the one query "".
type jobKey struct{ hash, qid string }

type job struct {
	chunk partition.ChunkID
	class core.QueryClass
	// subs are the subchunks the job covers, hash the address of its result,
	// and txn the dispatch write that listed it.
	subs     []partition.SubChunkID
	hash     string
	txn      *txn
	queuedAt time.Time // when the window admitted it
	state    int       // guarded by Worker.mu

	// ready is closed exactly once, after data and err — the job's
	// outcome — are set.
	ready chan struct{}
	data  []byte
	err   error

	// cancel is closed exactly once when the job is killed; the engine polls
	// it (ExecOptions.Interrupt).
	cancel     chan struct{}
	cancelOnce sync.Once

	// tables are the storage units the statements read, each resolved and
	// pinned when a statement first names it (useTables); written and read
	// by the goroutine executing the job.
	tables []tableUse

	// gang is the scan-lane pop the job started in with others, nil for a
	// job that started alone; gangJoins is 1 when it started behind the
	// gang's leader. Written by the scan executor before the job runs.
	gang      *gang
	gangJoins int
}

// gang is the jobs one scan-lane pop started together. What its members pin
// stays pinned until the last of them is done: a chunk's unit is resident
// once, and materialized at most once, per gang, however its members'
// executions interleave.
type gang struct {
	mu      sync.Mutex
	running int
	tables  []tableUse
}

// leave takes a finished member's tables — nil for a member that never ran —
// and the last member out gives back the whole gang's. A job that started
// alone (nil gang) gives back its own.
func (g *gang) leave(w *Worker, tables []tableUse) {
	if g != nil {
		g.mu.Lock()
		g.tables = append(g.tables, tables...)
		tables = nil
		if g.running--; g.running == 0 {
			tables = g.tables
		}
		g.mu.Unlock()
	}
	for _, use := range tables {
		if use.unit != nil {
			w.units.unpin(use.unit)
		}
	}
}

// canceled reports whether the job's kill signal fired.
func (j *job) canceled() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// signalCancel fires the kill signal; a running job aborts at the engine's
// next interrupt poll.
func (j *job) signalCancel() { j.cancelOnce.Do(func() { close(j.cancel) }) }

// New creates and starts a worker. The engine's default database is the
// catalog database (registry.DB); chunk tables live there. With
// cfg.DataDir set, New opens the durable chunk store, replays its
// write-ahead log, and rebuilds the worker's chunk tables from the
// checksum-verified segments on disk before serving.
func New(cfg Config, registry *meta.Registry) (*Worker, error) {
	cfg.Slots, cfg.InteractiveSlots = max(cfg.Slots, 1), max(cfg.InteractiveSlots, 1)
	def := DefaultConfig(cfg.Name)
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.ResultTimeout <= 0 {
		cfg.ResultTimeout = def.ResultTimeout
	}
	w := &Worker{
		cfg:         cfg,
		engine:      sqlengine.New(registry.DB),
		registry:    registry,
		interactive: make(chan *job, cfg.QueueDepth),
		scanq:       newGangQueue(cfg.QueueDepth, maxGangSize),
		stop:        make(chan struct{}),
		jobs:        map[jobKey]*job{},
	}
	w.db = w.engine.CreateDatabase(registry.DB)
	w.units = newUnitTable(w)
	w.traceOn.Store(cfg.Trace)
	if cfg.DataDir != "" {
		// A budget pages against the store: without one it is ignored.
		w.units.budget = cfg.MemoryBudgetBytes
		if err := w.openStore(); err != nil {
			return nil, err
		}
	}
	w.wg.Add(1)
	go w.evictor()
	// Register after the store exists so its sampled series are included.
	w.registerMetrics(cfg.Metrics)
	for i := 0; i < cfg.InteractiveSlots; i++ {
		w.wg.Add(1)
		go w.interactiveExecutor()
	}
	for i := 0; i < cfg.Slots; i++ {
		w.wg.Add(1)
		go w.scanExecutor()
	}
	return w, nil
}

// Name returns the worker's cluster identity.
func (w *Worker) Name() string { return w.cfg.Name }

// Engine exposes the local engine (loading, tests).
func (w *Worker) Engine() *sqlengine.Engine { return w.engine }

// Close stops the executors; queued jobs are abandoned. A durable
// worker's store is released so a successor process can reopen it.
func (w *Worker) Close() {
	close(w.stop)
	w.scanq.close()
	w.wg.Wait()
	if w.store != nil {
		w.store.Close()
	}
}

// Reports returns the most recent execution reports (up to
// maxReports), oldest first.
func (w *Worker) Reports() []JobReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]JobReport, 0, len(w.reports))
	out = append(out, w.reports[w.reportHead:]...)
	return append(out, w.reports[:w.reportHead]...)
}

// report logs one execution, overwriting the oldest once the ring is
// full. Callers hold w.mu.
func (w *Worker) report(r JobReport) {
	if len(w.reports) < maxReports {
		w.reports = append(w.reports, r)
		return
	}
	w.reports[w.reportHead] = r
	w.reportHead = (w.reportHead + 1) % maxReports
}

// QueueLen returns the number of queued (not yet started) chunk
// queries across both lanes.
func (w *Worker) QueueLen() int { return len(w.interactive) + w.scanq.len() }

// QueueLens returns the per-lane queue depths.
func (w *Worker) QueueLens() (interactive, scan int) {
	return len(w.interactive), w.scanq.len()
}

// ActiveJobs returns the number of chunk queries currently occupying an
// executor slot — the quantity the kill path exists to reclaim.
func (w *Worker) ActiveJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.active
}

// HeldJobs returns the number of chunk queries the worker holds state
// for: queued, running, or finished with an outcome the query that wrote
// it has yet to read. An idle worker holds none.
func (w *Worker) HeldJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobs)
}

// Cancel kills the chunk query whose result is addressed by hash and that
// was written over a bare path (no qid).
func (w *Worker) Cancel(hash string) bool { return w.release(hash, "") }

// release ends query qid's chunk query addressed by hash, whatever ended
// it: the query read the outcome, gave up on the read, or was killed
// (/cancel). A qid that wrote nothing here under the hash — a kill for a
// dispatch write that never landed, a kill following a read that already
// released, a kill that overtook its write — releases
// nothing, so one query never ends another's job; a qid-carrying one is
// remembered (cancelRing), so the write it overtook registers nothing.
//
// The job leaves the table: a finished one is dropped; a queued one is
// dequeued — its lane slot is never consumed — and completes with
// context.Canceled, as does one still waiting for its transaction's window;
// a running one, on either lane, aborts at the engine's next interrupt
// poll. A job that was admitted makes room in its transaction's window.
// release reports whether the job was still pending, queued or running.
func (w *Worker) release(hash, qid string) bool {
	key := jobKey{hash, qid}
	w.mu.Lock()
	j := w.jobs[key]
	if j == nil {
		if qid != "" {
			w.canceled.add(key)
		}
		w.mu.Unlock()
		return false
	}
	delete(w.jobs, key)
	state := j.state
	if state == jobQueued || state == jobPending {
		j.state = jobCanceled
	}
	var buf [txnWindow]*job
	var next []*job
	if state != jobPending {
		j.txn.out--
		next = w.admit(j.txn, buf[:0])
	}
	w.mu.Unlock()
	w.refuse(w.enqueue(next))
	switch state {
	case jobDone:
		return false
	case jobQueued, jobPending:
		// Scan-lane jobs leave the queue eagerly; interactive jobs are
		// marked and skipped when their channel slot drains.
		w.scanq.remove(j)
		j.signalCancel()
		j.err = fmt.Errorf("worker %s: chunk query %s: %w", w.cfg.Name, hash, context.Canceled)
		close(j.ready)
		return true
	default: // jobRunning
		j.signalCancel()
		return true
	}
}

// admit marks t's next jobs queued, in list order, while fewer than
// txnWindow of them are outstanding, and appends them to dst for enqueue.
// Callers hold w.mu.
func (w *Worker) admit(t *txn, dst []*job) []*job {
	for t.out < txnWindow && t.next < len(t.jobs) {
		j := t.jobs[t.next]
		t.next++
		if j.state != jobPending {
			continue // canceled while it waited
		}
		t.out++
		j.state, j.queuedAt = jobQueued, time.Now()
		dst = append(dst, j)
	}
	return dst
}

// enqueue puts admitted jobs on their class's lane and returns the ones a
// full lane refused. Callers do not hold w.mu, which an executor that a
// push wakes takes at once (begin); a job released in between reaches its
// lane marked canceled, and the executor skips it.
func (w *Worker) enqueue(jobs []*job) (refused []*job) {
	for _, j := range jobs {
		queued := false
		if j.class == core.Interactive {
			select {
			case w.interactive <- j:
				queued = true
			default:
			}
		} else {
			queued = w.scanq.push(j)
		}
		if !queued {
			refused = append(refused, j)
		}
	}
	return refused
}

// refuse finishes jobs a full lane refused with its error, for their
// readers to find — those not released meanwhile.
func (w *Worker) refuse(jobs []*job) {
	if len(jobs) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, j := range jobs {
		if j.state == jobQueued {
			j.state, j.err = jobDone, w.queueFull(j.class)
			close(j.ready)
		}
	}
}

func (w *Worker) queueFull(class core.QueryClass) error {
	return fmt.Errorf("worker %s: %s queue full (%d)", w.cfg.Name, class, w.cfg.QueueDepth)
}

// cancelMemory is how many overtaking kills a worker remembers.
const cancelMemory = 1024

// cancelRing is the (hash, qid) keys of the last cancelMemory kills that
// found no job. A kill and the dispatch write it means ride separate
// connections, so the kill can land first; a listed key found here is never
// registered, and the job nobody will read never runs. A bare-path key (qid
// "", the one query every test and simulation shares) is not remembered.
// Guarded by Worker.mu.
type cancelRing struct {
	keys [cancelMemory]jobKey
	next int
	set  map[jobKey]bool
}

func (c *cancelRing) add(k jobKey) {
	if c.set == nil {
		c.set = make(map[jobKey]bool, cancelMemory)
	}
	if c.set[k] {
		return
	}
	delete(c.set, c.keys[c.next])
	c.keys[c.next], c.set[k] = k, true
	c.next = (c.next + 1) % cancelMemory
}

func (c *cancelRing) has(k jobKey) bool { return c.set[k] }

// ---------- xrd.Handler ----------

// HandleWrite accepts a dispatch written to /query2/CC — a transaction of
// one job per chunk it lists (see txn), registered under each chunk's result
// hash and the writing query, and put on the lane its CLASS header selects
// (headerless payloads default to the scan lane — the conservative choice)
// as far as its window allows — a kill written to /cancel/H, which dequeues
// or aborts the writing query's job hashing to H, or an ingest transaction
// written to /load/... (catalog spec or row batch; see ingest.go).
func (w *Worker) HandleWrite(path string, data []byte) error {
	return w.HandleWriteContext(context.Background(), path, data)
}

// HandleWriteContext implements xrd.ContextHandler; enqueueing never
// blocks, so only the entry check consults the context.
func (w *Worker) HandleWriteContext(ctx context.Context, path string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	path, qid := xrd.SplitQID(path)
	if xrd.IsLoadPath(path) {
		return w.handleLoad(path, data)
	}
	if xrd.IsReplPath(path) {
		return w.installRepl(path, data)
	}
	if hash, ok := strings.CutPrefix(path, "/cancel/"); ok {
		// Kill transactions are idempotent: canceling an unknown query
		// — or one whose qid wrote nothing here — is a no-op, not
		// an error (the czar fires them best-effort on every chunk of a
		// dispatch it has not read, a torn dispatch write's included).
		w.release(hash, qid)
		return nil
	}
	chunk, err := parseQueryPath(path)
	if err != nil {
		return err
	}
	h, err := core.ParseHeader(data)
	if err != nil {
		return fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	t := &txn{sum: md5.Sum(data), text: string(data[h.Body:])}
	list := h.Chunks
	if len(list) == 0 {
		// The payload's hash is xrd.ResultHash's.
		list = []core.DispatchChunk{{Chunk: chunk, Hash: hex.EncodeToString(t.sum[:]), SubChunks: h.SubChunks}}
	}
	t.first = list[0]

	// Every listed key is registered, or none is.
	w.mu.Lock()
	var listed map[string]bool
	if len(list) > 1 {
		listed = make(map[string]bool, len(list))
	}
	for _, c := range list {
		if j := w.jobs[jobKey{c.Hash, qid}]; j != nil {
			w.mu.Unlock()
			if j.txn.sum == t.sum {
				// The same query's dispatch again (a transport re-delivery,
				// see xrd's repeatable): it finds its own jobs.
				return nil
			}
			return fmt.Errorf("worker %s: chunk query %s is held already", w.cfg.Name, c.Hash)
		}
		if listed[c.Hash] {
			w.mu.Unlock()
			return fmt.Errorf("worker %s: chunk query %s listed twice", w.cfg.Name, c.Hash)
		}
		if listed != nil {
			listed[c.Hash] = true
		}
	}
	for _, c := range list {
		key := jobKey{c.Hash, qid}
		if w.canceled.has(key) {
			continue // its kill came first
		}
		j := &job{chunk: c.Chunk, class: h.Class, subs: c.SubChunks, hash: c.Hash, txn: t,
			cancel: make(chan struct{}), ready: make(chan struct{})}
		w.jobs[key] = j
		t.jobs = append(t.jobs, j)
	}
	var buf [txnWindow]*job
	queued := w.admit(t, buf[:0])
	w.mu.Unlock()
	if len(w.enqueue(queued)) == 0 {
		return nil
	}
	// A lane filled partway: the write takes back every job it registered,
	// and fails.
	w.mu.Lock()
	t.next = len(t.jobs) // admits no more
	w.mu.Unlock()
	for _, j := range t.jobs {
		w.release(j.hash, qid)
	}
	return w.queueFull(h.Class)
}

// HandleRead serves /result/H to the query that wrote the chunk query
// hashing to H, blocking until it finishes (or the configured timeout
// passes); a query that wrote none gets no result. A chunk-query write
// buys one read: however the read ends — outcome served, caller gone,
// timeout — the job ends with it (see release), and a reader that gives up
// on a still-running job aborts it.
func (w *Worker) HandleRead(path string) ([]byte, error) {
	return w.HandleReadContext(context.Background(), path)
}

// HandleReadContext implements xrd.ContextHandler: a canceled context
// unblocks the (execution-length) result wait immediately, which is how
// a killed user query's collector goroutines return promptly.
func (w *Worker) HandleReadContext(ctx context.Context, path string) ([]byte, error) {
	if path == xrd.PingPath {
		// The health probe answers from the handler entry, never a scan
		// lane: a worker saturated with queued scans still reports alive.
		return w.pingStatus(), nil
	}
	if path == xrd.InventoryPath {
		// The repairer's placement-vs-reality audit: what chunks this
		// worker actually holds (after a restart, possibly fewer than
		// placement believes).
		return w.inventoryStatus(), nil
	}
	if xrd.IsReplPath(path) {
		return w.exportRepl(path)
	}
	path, qid := xrd.SplitQID(path)
	hash, err := parseResultPath(path)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	j, ok := w.jobs[jobKey{hash, qid}]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("worker %s: no such result %s", w.cfg.Name, hash)
	}
	defer w.release(hash, qid)
	select {
	case <-j.ready:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-time.After(w.cfg.ResultTimeout):
		return nil, fmt.Errorf("worker %s: result %s timed out after %v", w.cfg.Name, hash, w.cfg.ResultTimeout)
	}
	if j.err != nil {
		return nil, j.err
	}
	return j.data, nil
}

func parseQueryPath(path string) (partition.ChunkID, error) {
	rest, ok := strings.CutPrefix(path, "/query2/")
	id, err := strconv.Atoi(rest)
	if !ok || err != nil {
		return 0, fmt.Errorf("worker: bad query path %q", path)
	}
	return partition.ChunkID(id), nil
}

func parseResultPath(path string) (string, error) {
	const prefix = "/result/"
	if !strings.HasPrefix(path, prefix) {
		return "", fmt.Errorf("worker: bad result path %q", path)
	}
	hash := path[len(prefix):]
	if len(hash) != 32 {
		return "", fmt.Errorf("worker: bad result hash %q", hash)
	}
	return hash, nil
}

// ---------- execution ----------

// interactiveExecutor drains the interactive lane FIFO; with
// InteractiveSlots such executors, an interactive job's queue wait is
// bounded by other interactive jobs only.
func (w *Worker) interactiveExecutor() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case j := <-w.interactive:
			w.execute(j, time.Now())
		}
	}
}

// begin transitions a popped job to running; false means the job was
// canceled while queued (its result entry is already failed) and must
// not consume the slot.
func (w *Worker) begin(j *job) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if j.state != jobQueued {
		return false
	}
	j.state = jobRunning
	w.active++
	return true
}

// scanExecutor drains the scan lane gang by gang: every queued job on the
// popped chunk starts together, so the chunk's unit is materialized once
// for all of them — whichever member pins it first builds it, the rest wait
// in pin — and stays resident until the last of them is done (see gang).
// Start times are stamped in arrival order before the members fan out.
func (w *Worker) scanExecutor() {
	defer w.wg.Done()
	for {
		jobs := w.scanq.popGang()
		if jobs == nil {
			return
		}
		if len(jobs) == 1 {
			// A gang of one runs here, on the executor.
			w.execute(jobs[0], time.Now())
			continue
		}
		var gw sync.WaitGroup
		g := &gang{running: len(jobs)}
		for i, j := range jobs {
			j.gang, j.gangJoins = g, min(i, 1)
			started := time.Now()
			gw.Add(1)
			go func(j *job) {
				defer gw.Done()
				w.execute(j, started)
			}(j)
		}
		gw.Wait()
	}
}

func (w *Worker) execute(j *job, started time.Time) {
	if !w.begin(j) {
		j.gang.leave(w, nil)
		return
	}
	data, stats, err := w.runChunkQuery(j)
	if j.canceled() {
		// A killed job reports the cancellation, whatever its execution
		// came to — interrupted, torn, or over before the next interrupt
		// poll: nobody is owed its outcome.
		err = fmt.Errorf("worker %s: chunk query %s: %w", w.cfg.Name, j.hash, context.Canceled)
		data = nil
	}
	finished := time.Now()
	resultLen := len(data)
	w.metrics.observeJob(j.queuedAt, started, finished, err)
	w.metrics.gangJoins.Add(int64(j.gangJoins))
	if err == nil && w.traceEnabled() {
		// Ship this job's span subtree piggybacked on the result bytes;
		// the czar strips the trailer before merging. Shipping rides the
		// success path only — an errored job has no result transaction
		// to carry it (the czar renders a partial trace).
		data = telemetry.AppendTrailer(data, jobSpans(w, j, started, finished, resultLen))
	}

	w.mu.Lock()
	j.state = jobDone
	w.active--
	w.report(JobReport{
		Chunk:       j.chunk,
		Class:       j.class,
		Hash:        j.hash,
		QueuedAt:    j.queuedAt,
		StartedAt:   started,
		FinishedAt:  finished,
		Stats:       stats,
		ConvoyJoins: j.gangJoins,
		ResultLen:   resultLen,
		Err:         err,
	})
	w.mu.Unlock()

	j.data = data
	j.err = err
	close(j.ready)
}

// runChunkQuery executes the statements of one chunk query — once, or once
// per listed subchunk under a SUBCHUNKS header (see core.ChunkQuery) —
// building the subchunk tables the header lists, and returns the result
// serialized as a dump stream. Its statements are its transaction's, parsed
// once and bound to the job's chunk (see txn).
func (w *Worker) runChunkQuery(j *job) ([]byte, sqlengine.ExecStats, error) {
	run := &jobRun{w: w, j: j}
	// Units are pinned as statements name them, and given back when the job,
	// or the last of its gang, ends; the subchunk tables go with run.
	defer func() { j.gang.leave(w, j.tables) }()

	// Every SELECT writes its result rows, cell by cell from the column
	// slices, into the one result stream (section 5.4) the job ships. The
	// job's kill signal is the engine's interrupt, on either lane.
	if buf, ok := w.rowBufs.Get().(*[]byte); ok {
		run.out.Buf = (*buf)[:0]
	}
	defer func() { w.rowBufs.Put(&run.out.Buf) }()
	run.opts.Interrupt, run.opts.Sink = j.cancel, &run.out

	err := run.script()
	w.metrics.stmtsParsed.Add(run.parsed)
	w.metrics.stmtsReused.Add(run.reused)
	switch {
	case err != nil:
		return nil, run.stats, err
	case run.schema == nil:
		return nil, run.stats, fmt.Errorf("worker %s: empty chunk query", w.cfg.Name)
	}
	// The table name encodes the hash, so streams from many chunks stay
	// tellable apart. A traced job's span trailer goes on the end of the
	// stream in place, into room left for it: the rows are copied once.
	room := 0
	if w.traceEnabled() {
		room = trailerRoom + len(w.cfg.Name)
	}
	return run.out.Frame("r_"+j.hash[:16], run.schema, room), run.stats, nil
}

// jobRun is one execution of a chunk query's statements.
type jobRun struct {
	w      *Worker
	j      *job
	opts   sqlengine.ExecOptions
	out    dump.Writer
	schema sqlengine.Schema // of the first SELECT's result
	stats  sqlengine.ExecStats
	// parsed and reused count the statements the job parsed and the ones it
	// ran from its transaction's parse without parsing them.
	parsed, reused int64
	// subchunks are the subchunk tables the job built (see useTables).
	subchunks map[subchunkKey]*sqlengine.Table
}

// jobStmt is one statement of a job, a SELECT: a chunk query has no
// statement that writes.
type jobStmt struct {
	sel  *sqlparse.Select
	prep *sqlengine.Prepared // sel compiled, by the job's first pass
	// ents are sel's FROM entries as this job names them and tables the
	// tables they read this pass; passKeys says, of an entry naming a table
	// of the first listed subchunk, which table of each pass's subchunk it
	// reads instead (table "" for the others; see useTables).
	ents     []fromEntry
	tables   []*sqlengine.Table
	passKeys []subchunkKey
}

// script runs the job's statements, every one once per pass: one pass per
// listed subchunk, in list order, or one for a job that lists none. A job
// that lists none in a transaction written for a subchunk runs nothing: its
// one-chunk payload has no statement.
func (r *jobRun) script() error {
	w, j := r.w, r.j
	passes := j.subs
	if len(passes) == 0 {
		if len(j.txn.first.SubChunks) > 0 {
			return nil
		}
		passes = []partition.SubChunkID{-1}
	}
	stmts, parsed, err := j.txn.statements(w.registry, j)
	if err != nil {
		return fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	defer j.txn.done(stmts)
	if parsed {
		r.parsed = int64(len(stmts))
	} else {
		r.reused = int64(len(stmts))
	}
	for pass, sub := range passes {
		for i := range stmts {
			if err := r.run(&stmts[i], sub, pass == 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// run runs one statement for the pass over subchunk sub. The job's first
// pass readies the tables it reads — whichever subchunk, the units
// behind them are the same — and compiles it if the job parsed it; a later
// pass hands it that subchunk's tables.
func (r *jobRun) run(st *jobStmt, sub partition.SubChunkID, first bool) error {
	if r.j.canceled() {
		return r.execError(sqlengine.ErrInterrupted)
	}
	if first {
		if err := r.useTables(st); err != nil {
			return err
		}
		if st.prep == nil {
			prep, err := r.w.engine.Prepare(st.sel, st.tables)
			if err != nil {
				return r.execError(err)
			}
			st.prep = prep
		}
	}
	for i, key := range st.passKeys {
		if key.table != "" {
			key.sub = sub
			st.tables[i] = r.subchunks[key]
		}
	}
	res, err := st.prep.Run(st.tables, r.opts)
	if err != nil {
		return r.execError(err)
	}
	r.stats.Add(res.Stats)
	switch {
	case r.schema == nil:
		r.schema = res.Schema()
	case len(res.Cols) != len(r.schema):
		return fmt.Errorf("worker %s: statement results have mismatched arity", r.w.cfg.Name)
	}
	return nil
}

func (r *jobRun) execError(err error) error {
	return fmt.Errorf("worker %s chunk %d: %w", r.w.cfg.Name, r.j.chunk, err)
}

// tableUse is one storage unit a chunk query's statements read: unit is
// the pinned record, nil when this worker stores no such unit.
type tableUse struct {
	id   chunkstore.Unit
	unit *unit
}

// useTables finds the table each FROM entry of a SELECT reads, once per
// job. Each entry the codec reads as a piece of a catalog table (st.ents,
// bound by the transaction, see txn) is filed under the storage unit behind
// it, pinned the first time a statement of
// the job reads it: a unit evicted to disk is re-materialized here, and a
// pinned unit cannot be detached under the scans that follow. A subchunk
// table of the job's chunk, in the catalog's database, is one the job
// builds, for every listed subchunk of a unit this worker stores at once;
// an entry naming the first listed subchunk's reads each pass's own
// (passKeys). Every other name — a typo, a table put into the engine
// directly, a subchunk table the job did not build — is looked up in the
// database the entry names.
func (r *jobRun) useTables(st *jobStmt) error {
	w, j := r.w, r.j
	n := len(st.ents)
	st.tables, st.passKeys = slices.Grow(st.tables[:0], n)[:n], slices.Grow(st.passKeys[:0], n)[:n]
	clear(st.passKeys)
	for i, e := range st.ents {
		db, ref := st.sel.From[i].DB, e.ref
		if e.resolved {
			u, err := r.pin(unitOfRef(ref))
			if err != nil {
				return r.execError(err)
			}
			if ref.Kind.Subchunk() && ref.Chunk == j.chunk && len(j.subs) > 0 && u != nil &&
				(db == "" || strings.EqualFold(db, w.db.Name)) {
				if r.subchunks[subchunkKey{ref.Info.Name, meta.SubChunkTable, j.subs[0]}] == nil {
					built, stats, err := w.generateSubchunks(u.id, j.subs)
					r.stats.Add(stats) // the job's build is the job's I/O
					if err != nil {
						return err
					}
					maps.Copy(built, r.subchunks) // other units' tables, built before
					r.subchunks = built
				}
				key := subchunkKey{ref.Info.Name, ref.Kind, ref.Sub}
				if t := r.subchunks[key]; t != nil {
					st.tables[i] = t
					if ref.Sub == j.subs[0] {
						st.passKeys[i] = key
					}
					continue
				}
			}
		}
		d, err := w.engine.Database(cmp.Or(db, w.engine.DefaultDB()))
		if err == nil {
			st.tables[i], err = d.Table(e.name)
		}
		if err != nil {
			return r.execError(err)
		}
	}
	return nil
}

// pin pins a unit the first time a statement of the job reads it, and
// returns its record: nil for a unit this worker stores none of.
func (r *jobRun) pin(id chunkstore.Unit) (*unit, error) {
	j := r.j
	for _, use := range j.tables {
		if use.id == id {
			return use.unit, nil
		}
	}
	u, err := r.w.units.pin(id, false)
	if err != nil {
		return nil, err
	}
	j.tables = append(j.tables, tableUse{id: id, unit: u})
	return u, nil
}
