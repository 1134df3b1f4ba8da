package qserv

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/xrd"
)

// This file is the write half of the public API: streaming,
// fabric-routed parallel ingest. CreateTables installs a declarative
// CatalogSpec (registry-side and, via the fabric's /load/spec
// transaction, on every worker); Ingest streams rows from a RowSource,
// partitions them — chunk, subchunk, and overlap membership — in one
// pass that also feeds the director-key secondary index, and ships
// encoded batches to all replica workers concurrently, one shipping
// lane per worker, over the xrd fabric's /load transaction. Workers
// apply batches incrementally (chunk tables, overlap companions, and
// director-key indexes grow with each batch), so ingest needs no
// second indexing or Locate sweep.

// RowSource streams rows into Ingest. Implementations need not be
// safe for concurrent use; Ingest consumes them from one goroutine.
type RowSource interface {
	// Next returns the next row; ok is false when the stream ends.
	// Rows must match the table's user columns (everything except the
	// system-computed chunkId/subChunkId pair).
	Next() (Row, bool)
	// Err reports a source failure after Next returned ok=false; a
	// clean end of stream returns nil.
	Err() error
}

// sliceSource adapts an in-memory row slice to RowSource.
type sliceSource struct {
	rows []Row
	pos  int
}

// RowsOf returns a RowSource over an in-memory slice.
func RowsOf(rows []Row) RowSource { return &sliceSource{rows: rows} }

func (s *sliceSource) Next() (Row, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func (s *sliceSource) Err() error { return nil }

// IngestStats summarizes one Ingest call.
type IngestStats struct {
	// Rows is the number of rows ingested.
	Rows int64
	// OverlapRows counts overlap-table copies shipped (a row lands once
	// in its own chunk and possibly in several overlap companions).
	OverlapRows int64
	// Chunks is the number of distinct chunks the rows landed in.
	Chunks int
	// Batches counts fabric /load shipments (per replica).
	Batches int
	// Elapsed is the wall-clock ingest time.
	Elapsed time.Duration
}

// CreateTables validates a catalog spec and installs it: table metadata
// enters the frontend registry the planner consults, and the spec is
// broadcast to every worker over the fabric (/load/spec) so
// out-of-process workers build the same catalog. Call it once before
// ingesting; a later call may add further tables.
func (cl *Cluster) CreateTables(spec CatalogSpec) error {
	mspec, err := spec.toMeta()
	if err != nil {
		return err
	}
	if mspec.Database == "" {
		mspec.Database = cl.Registry.DB
	}
	if err := cl.Registry.ApplySpec(mspec); err != nil {
		return err
	}
	payload, err := ingest.EncodeSpec(mspec)
	if err != nil {
		return err
	}
	// Kept before the broadcast: a worker that joins or comes back empty
	// from here on is sent it (prepareWorker).
	cl.ingestMu.Lock()
	cl.specs = append(cl.specs, payload)
	cl.ingestMu.Unlock()
	ctx := context.Background()
	for _, name := range cl.WorkerNames() {
		if err := cl.client.WriteTo(ctx, name, xrd.LoadSpecPath, payload); err != nil {
			return fmt.Errorf("qserv: create tables on worker %s: %w", name, err)
		}
	}
	return nil
}

// Ingest streams rows into a created table; see IngestContext.
func (cl *Cluster) Ingest(table string, src RowSource) (IngestStats, error) {
	return cl.IngestContext(context.Background(), table, src)
}

// IngestContext streams rows from src into table, which must have been
// declared with CreateTables. Rows carry the table's user columns;
// chunkId/subChunkId are computed here. Director rows are placed by
// their position and feed the secondary index as they stream; child
// rows follow their director key (ingest the director table first);
// replicated rows go to every worker and the czar. Batches ship to all
// replica workers concurrently, one lane per worker, over the xrd
// fabric. A table ingests exactly once: re-ingest is rejected (it
// would duplicate rows on the workers).
func (cl *Cluster) IngestContext(ctx context.Context, table string, src RowSource) (IngestStats, error) {
	start := time.Now()
	var stats IngestStats
	info, err := cl.Registry.Table(table)
	if err != nil {
		return stats, err
	}

	key := strings.ToLower(info.Name)
	cl.ingestMu.Lock()
	if cl.ingesting[key] {
		cl.ingestMu.Unlock()
		return stats, fmt.Errorf("qserv: table %s has an ingest in flight", info.Name)
	}
	if cl.ingested[key] {
		cl.ingestMu.Unlock()
		return stats, fmt.Errorf("qserv: table %s is already ingested; re-ingest would duplicate rows (build a fresh cluster or declare a new table)", info.Name)
	}
	// A child needs its director COMPLETED, not merely started: child
	// rows are placed by director-key lookups that a still-streaming
	// director has not fed yet.
	if info.Kind == meta.KindChild && !cl.ingested[strings.ToLower(info.Director)] {
		cl.ingestMu.Unlock()
		return stats, fmt.Errorf("qserv: ingest director table %s before child table %s: child rows are placed by their director key", info.Director, info.Name)
	}
	cl.ingesting[key] = true
	cl.ingestMu.Unlock()
	// While the ingest runs, the czar rejects queries referencing the
	// table — worker chunk tables grow batch by batch and must not be
	// read mid-stream.
	cl.Registry.SetIngesting(info.Name, true)

	if info.Partitioned {
		err = cl.ingestPartitioned(ctx, info, src, &stats)
	} else {
		err = cl.ingestReplicated(ctx, info, src, &stats)
	}

	cl.Registry.SetIngesting(info.Name, false)
	cl.ingestMu.Lock()
	delete(cl.ingesting, key)
	if err == nil || stats.Batches > 0 {
		// Success — or a failure after shipping began: workers hold
		// partial rows, so the table is sealed (a retry would
		// duplicate them). A failure before the first shipment leaves
		// the table pristine and retryable.
		cl.ingested[key] = true
	}
	cl.ingestMu.Unlock()
	stats.Elapsed = time.Since(start)
	return stats, err
}

// ingestBatchRows is the rows per fabric /load shipment, and so per stored
// frame.
const ingestBatchRows = 2048

// pendingChunk buffers one chunk's not-yet-shipped rows in their batch
// encoding: its own rows and its overlap rows, each a run of encoded rows
// and its count.
type pendingChunk struct {
	rows, overlap   []byte
	nRows, nOverlap int
}

func (p *pendingChunk) size() int { return p.nRows + p.nOverlap }

// batch frames the pending rows as one /load batch — the header, the own
// rows, the overlap rows — and empties the buffers for reuse.
func (p *pendingChunk) batch() []byte {
	out := make([]byte, 0, ingest.MaxHeaderLen+len(p.rows)+len(p.overlap))
	out = ingest.AppendHeader(out, p.nRows, p.nOverlap)
	out = append(append(out, p.rows...), p.overlap...)
	p.rows, p.overlap, p.nRows, p.nOverlap = p.rows[:0], p.overlap[:0], 0, 0
	return out
}

// addRow encodes one storage row onto the own rows — the user cells,
// then the chunk and subchunk ids — and returns its encoding.
func (p *pendingChunk) addRow(row Row, pl placement) ([]byte, error) {
	start := len(p.rows)
	rows, err := ingest.AppendRow(room(p.rows, ingest.RowSize(row, 2)), row, int64(pl.chunk), int64(pl.sub))
	if err != nil {
		return nil, err
	}
	p.rows = rows
	p.nRows++
	return rows[start:], nil
}

// addOverlap appends one encoded row to the overlap rows.
func (p *pendingChunk) addOverlap(row []byte) {
	p.overlap = append(room(p.overlap, len(row)), row...)
	p.nOverlap++
}

// room returns buf with room for n more bytes, doubling it when short: a
// pending batch fills row by row, and append's own growth (1.25x for
// large slices) would copy its bytes several times over on the way.
func room(buf []byte, n int) []byte {
	if cap(buf)-len(buf) < n {
		return slices.Grow(buf, len(buf)+n)
	}
	return buf
}

// ingestPartitioned runs the single partition pass and ships per-chunk
// batches through the shipper's per-worker lanes. Each row is encoded
// once, straight into its chunk's pending batch; its overlap copies are
// byte copies of that encoding.
//
// Placement invariants: a chunk is placed exactly when the director
// table has rows in it — the director's own rows drive placement as
// they stream, children always land on already-placed chunks (their
// director row got there first), and overlap copies never place a
// chunk. An overlap copy aimed at a chunk that is not placed yet is
// deferred: if the chunk gains own rows later in the stream it ships
// at the end, otherwise it is dropped (a chunk without data
// contributes no join pairs, so its overlap is never read). Finally,
// every placed chunk ends up with this table's chunk table even when
// no row landed there — the czar dispatches every placed chunk, so the
// table must exist (if empty) everywhere.
func (cl *Cluster) ingestPartitioned(ctx context.Context, info *meta.TableInfo, src RowSource, stats *IngestStats) error {
	placer, err := newRowPlacer(info, cl.Chunker, cl.Index)
	if err != nil {
		return err
	}
	sh := cl.newShipper(ctx, info.Name)
	buf := map[partition.ChunkID]*pendingChunk{}
	seen := map[partition.ChunkID]bool{}
	deferred := map[partition.ChunkID]*pendingChunk{} // overlap rows only
	pendIn := func(m map[partition.ChunkID]*pendingChunk, c partition.ChunkID) *pendingChunk {
		p := m[c]
		if p == nil {
			p = &pendingChunk{}
			m[c] = p
		}
		return p
	}
	pend := func(c partition.ChunkID) *pendingChunk { return pendIn(buf, c) }
	isPlaced := func(c partition.ChunkID) bool { return len(cl.Placement.Workers(c)) > 0 }

	// Per-chunk min/max column statistics for the routing tier's
	// cost-based pruning (internal/planopt), accumulated over the rows
	// each chunk actually stores (own rows; overlap copies live in
	// overlap tables the statistics deliberately ignore) and installed
	// atomically on success — before the ingest gate lifts, so no query
	// ever sees a half-accumulated table.
	type numCol struct {
		idx  int
		name string
	}
	var numCols []numCol
	for i, col := range info.UserColumns() {
		if col.Type == sqlparse.TypeInt || col.Type == sqlparse.TypeFloat {
			numCols = append(numCols, numCol{idx: i, name: col.Name})
		}
	}
	// A chunk's summaries accumulate in a slice parallel to numCols — the
	// row loop below is the ingest's one producer goroutine, and a map
	// lookup per numeric cell was a tenth of its time — and become the
	// per-column maps the statistics store keeps once, at the end.
	acc := map[partition.ChunkID][]meta.ColStats{}
	observe := func(c partition.ChunkID, row Row) {
		cols := acc[c]
		if cols == nil {
			cols = make([]meta.ColStats, len(numCols))
			acc[c] = cols
		}
		for i, nc := range numCols {
			if v, ok := asFloat(row[nc.idx]); ok { // NULL (or unconvertible) values stay unobserved
				cols[i] = foldStat(cols[i], v)
			}
		}
	}
	shipped := map[partition.ChunkID]bool{}
	flush := func(c partition.ChunkID, p *pendingChunk) error {
		shipped[c] = true
		names, err := cl.ingestPlacement(c)
		if err != nil {
			return err
		}
		payload := p.batch()
		for _, name := range names {
			stats.Batches++
			if err := sh.send(name, shipment{
				path:    xrd.LoadPath(info.Name, int(c)),
				payload: payload,
				desc:    fmt.Sprintf("%s chunk %d", info.Name, c),
			}); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		pl, err := placer.place(row)
		if err != nil {
			sh.abort(err)
			break
		}
		c := pl.chunk
		if !seen[c] {
			seen[c] = true
			// A director row places its chunk the moment it appears;
			// child rows only ever land on placed chunks.
			if _, err := cl.ingestPlacement(c); err != nil {
				sh.abort(err)
				break
			}
		}
		p := pend(c)
		enc, err := p.addRow(row, pl)
		if err != nil {
			sh.abort(fmt.Errorf("qserv: ingest %s row %d: %w", info.Name, placer.n, err))
			break
		}
		observe(c, row)
		stats.Rows++
		if info.Overlap && pl.hasPt {
			for _, oc := range cl.Chunker.OverlapChunks(pl.pt) {
				if !isPlaced(oc) {
					// The chunk may still gain own rows; decide at the end.
					pendIn(deferred, oc).addOverlap(enc)
					continue
				}
				op := pend(oc)
				op.addOverlap(enc)
				stats.OverlapRows++
				if op.size() >= ingestBatchRows {
					if err := flush(oc, op); err != nil {
						sh.abort(err)
						break
					}
				}
			}
		}
		if p.size() >= ingestBatchRows {
			if err := flush(c, p); err != nil {
				sh.abort(err)
				break
			}
		}
		if sh.failed() {
			break
		}
	}
	if err := src.Err(); err != nil {
		sh.abort(fmt.Errorf("qserv: ingest %s: row source: %w", info.Name, err))
	}

	if !sh.failed() {
		// Overlap copies whose target chunk did become placed ship now;
		// the rest are dropped (their chunks hold no data).
		for oc, d := range deferred {
			if !isPlaced(oc) {
				continue
			}
			p := pend(oc)
			p.overlap = append(p.overlap, d.overlap...)
			p.nOverlap += d.nOverlap
			stats.OverlapRows += int64(d.nOverlap)
		}
		// Flush remainders — and create this table's (empty) chunk
		// tables on every placed chunk it has no rows in — in chunk
		// order, so shipping tails are deterministic.
		for _, c := range cl.Placement.Chunks() {
			p := buf[c]
			if p == nil {
				p = pend(c)
			}
			if p.size() == 0 && shipped[c] {
				continue // table already exists there; nothing new to add
			}
			if err := flush(c, p); err != nil {
				sh.abort(err)
				break
			}
		}
	}
	stats.Chunks = len(seen)
	err = sh.close()
	if err == nil {
		byName := make(map[partition.ChunkID]map[string]meta.ColStats, len(acc))
		for c, cols := range acc {
			byName[c] = map[string]meta.ColStats{}
			for i, cs := range cols {
				if cs.Rows > 0 {
					byName[c][numCols[i].name] = cs
				}
			}
		}
		cl.Stats.SetTable(info.Name, byName)
	}
	return err
}

// foldStat folds one observed value into a column summary.
func foldStat(cs meta.ColStats, v float64) meta.ColStats {
	if cs.Rows == 0 {
		return meta.ColStats{Min: v, Max: v, Rows: 1}
	}
	if v < cs.Min {
		cs.Min = v
	}
	if v > cs.Max {
		cs.Max = v
	}
	cs.Rows++
	return cs
}

// asFloat widens a stored numeric value for statistics accumulation.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

// ingestReplicated ships the full row set to every worker's lane and
// installs the table on the czar, which answers unpartitioned queries
// locally.
func (cl *Cluster) ingestReplicated(ctx context.Context, info *meta.TableInfo, src RowSource, stats *IngestStats) error {
	var rows []sqlengine.Row
	n := int64(0)
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		n++
		if len(row) != len(info.Schema) {
			return fmt.Errorf("qserv: ingest %s row %d: got %d columns, schema has %d",
				info.Name, n, len(row), len(info.Schema))
		}
		rows = append(rows, sqlengine.Row(row))
	}
	if err := src.Err(); err != nil {
		return fmt.Errorf("qserv: ingest %s: row source: %w", info.Name, err)
	}
	stats.Rows = int64(len(rows))
	payload, err := ingest.EncodeBatch(ingest.Batch{Rows: rows})
	if err != nil {
		return fmt.Errorf("qserv: ingest %s: %w", info.Name, err)
	}

	sh := cl.newShipper(ctx, info.Name)
	for _, name := range cl.WorkerNames() {
		stats.Batches++
		if err := sh.send(name, shipment{
			path:    xrd.LoadSharedPath(info.Name),
			payload: payload,
			desc:    fmt.Sprintf("replicated table %s", info.Name),
		}); err != nil {
			sh.abort(err)
			break
		}
	}
	if err := sh.close(); err != nil {
		return err
	}

	czarDB, err := cl.Czar.Engine().Database(cl.Registry.DB)
	if err != nil {
		return err
	}
	t, err := info.NewIngestTable(info.Name)
	if err != nil {
		return err
	}
	if err := t.Insert(rows...); err != nil {
		return err
	}
	czarDB.Put(t)
	return nil
}

// ingestPlacement returns the workers holding a chunk, assigning
// replicas deterministically (chunk id modulo the worker ring, so
// consecutive chunks land on different nodes — the round-robin skew
// spreading of paper section 4.4) and registering the chunk's fabric
// export the first time the chunk appears. Workers the failure
// detector considers dead are skipped: a new chunk must not be homed
// on a node that cannot accept its rows. Too few live workers for the
// replication factor is an immediate, named error — not a lane
// timeout per batch.
func (cl *Cluster) ingestPlacement(c partition.ChunkID) ([]string, error) {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	if ws := cl.Placement.Workers(c); len(ws) > 0 {
		return ws, nil
	}
	live := make([]string, 0, len(cl.names))
	for _, name := range cl.names {
		if !cl.deadWorker(name) && !cl.removing[name] {
			live = append(live, name)
		}
	}
	if len(live) < cl.Config.Replication {
		return nil, fmt.Errorf("qserv: ingest: chunk %d needs %d replicas but only %d of %d workers are live",
			c, cl.Config.Replication, len(live), len(cl.names))
	}
	reps := make([]string, 0, cl.Config.Replication)
	for r := 0; r < cl.Config.Replication; r++ {
		reps = append(reps, live[(int(c)+r)%len(live)])
	}
	cl.Placement.Assign(c, reps...)
	for _, name := range reps {
		cl.Redirector.Register(cl.endpoints[name], xrd.QueryPath(int(c)))
	}
	return reps, nil
}

// rowPlacer performs the per-row partition decisions of one ingest:
// column validation, chunk/subchunk assignment (own position for a
// director, secondary-index lookup for a child), and the director-key
// index feed — all in the same pass.
type rowPlacer struct {
	info           *meta.TableInfo
	chunker        *partition.Chunker
	index          *meta.ObjectIndex
	raIdx, declIdx int
	keyIdx         int
	n              int64
}

func newRowPlacer(info *meta.TableInfo, chunker *partition.Chunker, index *meta.ObjectIndex) (*rowPlacer, error) {
	user := info.UserColumns()
	p := &rowPlacer{info: info, chunker: chunker, index: index, raIdx: -1, declIdx: -1, keyIdx: -1}
	if info.RAColumn != "" {
		p.raIdx = user.ColIndex(info.RAColumn)
		p.declIdx = user.ColIndex(info.DeclColumn)
	}
	if info.DirectorKey != "" {
		p.keyIdx = user.ColIndex(info.DirectorKey)
	}
	if info.Kind == meta.KindDirector && (p.raIdx < 0 || p.declIdx < 0 || p.keyIdx < 0) {
		return nil, fmt.Errorf("qserv: table %s: director metadata incomplete", info.Name)
	}
	if info.Kind == meta.KindChild && p.keyIdx < 0 {
		return nil, fmt.Errorf("qserv: table %s: child has no director key column", info.Name)
	}
	return p, nil
}

// placement is where one row of a partitioned table goes: its chunk and
// subchunk, and — when the table has position columns — its sky
// position, for overlap probing.
type placement struct {
	chunk partition.ChunkID
	sub   partition.SubChunkID
	pt    sphgeom.Point
	hasPt bool
}

// place validates one user row and returns its placement. The storage
// row is the user row followed by the chunk and subchunk ids.
func (p *rowPlacer) place(row Row) (pl placement, err error) {
	p.n++
	user := p.info.UserColumns()
	if len(row) != len(user) {
		return pl, fmt.Errorf("qserv: ingest %s row %d: got %d columns, want %d (%s)",
			p.info.Name, p.n, len(row), len(user), strings.Join(user.Names(), ", "))
	}
	if p.raIdx >= 0 {
		ra, ok1 := asDegrees(row[p.raIdx])
		decl, ok2 := asDegrees(row[p.declIdx])
		if !ok1 || !ok2 {
			return pl, fmt.Errorf("qserv: ingest %s row %d: position columns %s/%s must be numeric",
				p.info.Name, p.n, p.info.RAColumn, p.info.DeclColumn)
		}
		pl.pt = sphgeom.NewPoint(ra, decl)
		pl.hasPt = true
	}

	switch p.info.Kind {
	case meta.KindDirector:
		key, ok := row[p.keyIdx].(int64)
		if !ok {
			return pl, fmt.Errorf("qserv: ingest %s row %d: director key %s must be an int64",
				p.info.Name, p.n, p.info.DirectorKey)
		}
		pl.chunk, pl.sub = p.chunker.Locate(pl.pt)
		p.index.Put(key, meta.ChunkSub{Chunk: pl.chunk, Sub: pl.sub})
	case meta.KindChild:
		key, ok := row[p.keyIdx].(int64)
		if !ok {
			return pl, fmt.Errorf("qserv: ingest %s row %d: director key %s must be an int64",
				p.info.Name, p.n, p.info.DirectorKey)
		}
		loc, found := p.index.Lookup(key)
		if !found {
			return pl, fmt.Errorf("qserv: ingest %s row %d: %s %d not found in director table %s",
				p.info.Name, p.n, p.info.DirectorKey, key, p.info.Director)
		}
		pl.chunk, pl.sub = loc.Chunk, loc.Sub
	default:
		return pl, fmt.Errorf("qserv: table %s is not partitioned", p.info.Name)
	}
	return pl, nil
}

// asDegrees coerces a position value.
func asDegrees(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}

// ---------- per-worker shipping lanes ----------

// shipment is one /load write bound for a specific worker: an encoded
// batch, which the lane only writes. The payload is immutable once handed
// over, so replica lanes share it.
type shipment struct {
	path    string
	payload []byte
	// desc names what is being shipped for error messages ("Object
	// chunk 113", "replicated table Filter").
	desc string
}

// shipper fans encoded batches out to the workers: one serialized lane
// (goroutine + queue) per worker, so every worker loads concurrently
// while each applies its own batches in order.
type shipper struct {
	cl     *Cluster
	table  string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	lanes map[string]chan shipment
	err   error
}

func (cl *Cluster) newShipper(ctx context.Context, table string) *shipper {
	ctx, cancel := context.WithCancel(ctx)
	return &shipper{
		cl:     cl,
		table:  table,
		ctx:    ctx,
		cancel: cancel,
		lanes:  map[string]chan shipment{},
	}
}

// send enqueues a shipment on the worker's lane, starting the lane on
// first use. It blocks when the lane queue is full (backpressure) and
// returns the recorded failure, if any, so the producer stops early.
func (s *shipper) send(worker string, sh shipment) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	ch, ok := s.lanes[worker]
	if !ok {
		ch = make(chan shipment, 8)
		s.lanes[worker] = ch
		s.wg.Add(1)
		go s.lane(worker, ch)
	}
	s.mu.Unlock()
	select {
	case ch <- sh:
		return nil
	case <-s.ctx.Done():
		return s.failure(context.Cause(s.ctx))
	}
}

// lane ships one worker's batches in order. A worker the failure
// detector declared dead fails the ingest immediately with an error
// naming the worker and the shipment (table + chunk), instead of
// timing the lane out batch by batch.
func (s *shipper) lane(worker string, ch chan shipment) {
	defer s.wg.Done()
	for sh := range ch {
		if s.failed() {
			continue // drain
		}
		if s.cl.deadWorker(worker) {
			s.abort(fmt.Errorf("qserv: ingest %s: worker %s is dead; %s not shipped", s.table, worker, sh.desc))
			continue
		}
		if err := s.cl.client.WriteTo(s.ctx, worker, sh.path, sh.payload); err != nil {
			s.abort(fmt.Errorf("qserv: ingest %s: worker %s rejected %s: %w", s.table, worker, sh.desc, err))
		}
	}
}

// abort records the first failure and stops in-flight shipping.
func (s *shipper) abort(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		s.cancel()
	}
	s.mu.Unlock()
}

func (s *shipper) failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

// failure returns the recorded error, falling back to the given cause.
func (s *shipper) failure(cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return cause
}

// close drains the lanes and returns the first failure.
func (s *shipper) close() error {
	s.mu.Lock()
	for _, ch := range s.lanes {
		close(ch)
	}
	s.lanes = map[string]chan shipment{}
	s.mu.Unlock()
	s.wg.Wait()
	s.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
