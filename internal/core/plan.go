package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlparse"
)

// ErrNoPartitionedTable marks queries that touch only unpartitioned
// tables; the czar runs those directly on its local engine instead of
// dispatching chunk queries.
var ErrNoPartitionedTable = errors.New("core: query references no partitioned table")

// QueryClass separates cheap interactive queries from expensive scans
// for worker scheduling (paper section 4.3): interactive queries get
// dedicated low-latency slots while full scans of one chunk run as a gang
// over one read of it.
type QueryClass int

const (
	// FullScan marks queries that must read whole chunk tables.
	FullScan QueryClass = iota
	// Interactive marks secondary-index dives and single-chunk point
	// queries, which touch few rows and must not wait behind scans.
	Interactive
)

// String renders the class in the chunk-query wire spelling.
func (c QueryClass) String() string {
	if c == Interactive {
		return "INTERACTIVE"
	}
	return "FULLSCAN"
}

// ParseQueryClass parses the wire spelling; ok is false for anything
// else.
func ParseQueryClass(s string) (QueryClass, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INTERACTIVE":
		return Interactive, true
	case "FULLSCAN":
		return FullScan, true
	}
	return FullScan, false
}

// RouteKind labels the mechanism that produced a plan's chunk set.
type RouteKind int

// The routing mechanisms, in decreasing selectivity.
const (
	// RouteFanOut dispatches to every placed chunk (no restriction).
	RouteFanOut RouteKind = iota
	// RouteIndexDive resolved director-key predicates through the
	// secondary index to the owning chunk(s).
	RouteIndexDive
	// RouteSpatial intersected a WHERE-derived (or areaspec) region
	// with the placed chunk set.
	RouteSpatial
	// RouteStats eliminated chunks whose recorded min/max column
	// statistics are disjoint from range predicates.
	RouteStats
)

// String renders the route kind for observability surfaces.
func (k RouteKind) String() string {
	switch k {
	case RouteIndexDive:
		return "INDEX_DIVE"
	case RouteSpatial:
		return "SPATIAL"
	case RouteStats:
		return "STATS"
	}
	return "FANOUT"
}

// Route is one routing decision: the chunk set to dispatch and an
// accounting of how it was narrowed.
type Route struct {
	// Kind is the dominant mechanism that produced Chunks.
	Kind RouteKind
	// Chunks is the chunk set to dispatch, ascending.
	Chunks []partition.ChunkID
	// Pruned counts placed chunks the route eliminated.
	Pruned int
}

// Router chooses the chunk set for an analyzed query. The planner's
// built-in selection (index dive / spatial cover / full fan-out) is
// used when no Router is installed; internal/planopt implements the
// full routing tier (adds statistics-based pruning) on top of it.
type Router interface {
	Route(a *Analysis, placed []partition.ChunkID) Route
}

// Planner turns analyzed user queries into executable plans. It needs
// the catalog registry for table metadata and, optionally, the objectId
// secondary index for point-query chunk elimination.
type Planner struct {
	Registry *meta.Registry
	Index    *meta.ObjectIndex // may be nil
	// Router, when installed, overrides the planner's built-in chunk
	// selection (the czar installs the planopt routing tier here).
	Router Router
	// TopK enables ORDER BY + LIMIT pushdown for pass-through queries:
	// each chunk statement carries the full top-K (ORDER BY + LIMIT) so
	// workers ship at most K rows per statement instead of every match,
	// and the czar re-merges the sorted partials (the section 7.6
	// result-collection bottleneck mitigation).
	TopK bool
}

// Plan is everything the czar needs to execute one user query: the
// chunk set, a per-chunk SQL generator, and the merge query that
// combines worker results (paper sections 5.3-5.4).
type Plan struct {
	Analysis *Analysis
	// Class is the scheduling class carried to workers with every chunk
	// query of this plan.
	Class QueryClass
	// Chunks to dispatch to, ascending.
	Chunks []partition.ChunkID
	// Route records how Chunks was chosen (mechanism + pruning count).
	Route Route
	// SubChunksByChunk lists the subchunks each chunk query must cover;
	// nil when the plan does not use subchunks.
	SubChunksByChunk map[partition.ChunkID][]partition.SubChunkID
	// units are the worker-side statements, kept cut at their FROM tables:
	// one, or for a near-neighbour plan the subchunk's self and overlap
	// statements. QueryFor renders them per chunk.
	units []*Unit
	// Merge is the master-side statement run over the collected result
	// table; its FROM references the placeholder table name
	// MergeTablePlaceholder.
	Merge *sqlparse.Select
	// Combine, for a plan that has one, is the statement that folds chunk
	// results into fewer rows without changing what Merge answers over
	// them, so the czar can run it over what it holds as often as it likes:
	// an aggregate plan's re-aggregates the partials by group (SUM over SUM
	// and COUNT partials, MIN over MIN, MAX over MAX, under the worker
	// columns' own names), a top-K plan's keeps the best K rows under the
	// merge ordering. Its FROM is Merge's placeholder and its answer has the
	// columns of a chunk result — it is also a statement a worker's engine
	// can run. nil for every other plan: its rows only ever accumulate.
	Combine *sqlparse.Select
	// ResultColumns are the column names of a worker's chunk result (for
	// an aggregate plan the partial aggregates, not what the client
	// sees — that is OutputColumns), used to check arriving results and
	// to synthesize an empty result when no chunk is dispatched.
	ResultColumns []string
	// ResultTypes are the storage types of ResultColumns, derived from
	// catalog schemas and expression shapes; the czar uses them to type
	// the session result table (and zero-chunk synthesized results)
	// instead of defaulting every column to DOUBLE.
	ResultTypes []sqlparse.ColType
	// TopK is true when the worker statements carry the user's ORDER BY
	// + LIMIT (top-K pushdown), so each ships at most K rows.
	TopK bool
	// Tables names every table the plan reads, lower-cased, sorted, each
	// once: the tables an ingest in flight makes unqueryable, and the ones
	// the result cache's stamp reads the ingest generations of.
	Tables []string

	registry *meta.Registry
	topK     bool // planner's TopK knob, latched before buildTemplates
}

// MergeTablePlaceholder is the FROM table of the merge and combine
// statements: the czar runs them over its session's table, handed to the
// engine under this name.
const MergeTablePlaceholder = "QSERV_RESULT"

// ChunkQuery is the payload dispatched to a worker for one chunk: the
// paper's chunk-query format (section 5.4) — optional CLASS and
// SUBCHUNKS header lines followed by SELECTs, the only statement a worker
// runs (a payload holding any other fails to parse). Under a SUBCHUNKS
// header the statements are written for the first listed subchunk, and the
// worker runs them once per listed subchunk, in list order, with every FROM
// entry that names that first subchunk's subchunk or overlap-subchunk table
// of the chunk reading the subchunk's own.
type ChunkQuery struct {
	Chunk      partition.ChunkID
	Class      QueryClass
	SubChunks  []partition.SubChunkID
	Statements []string
}

// Payload renders the chunk query in the wire format:
//
//	-- CLASS: INTERACTIVE|FULLSCAN
//	-- SUBCHUNKS: <id0>[, <id1>...]
//	<SQL statement 1>;
//	...
func (cq ChunkQuery) Payload() []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s\n", classPrefix, cq.Class)
	if len(cq.SubChunks) > 0 {
		sb.WriteString(subChunksPrefix)
		for i, s := range cq.SubChunks {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, " %d", s)
		}
		sb.WriteByte('\n')
	}
	for _, st := range cq.Statements {
		sb.WriteString(st)
		sb.WriteString(";\n")
	}
	return []byte(sb.String())
}

// Dispatch is the payload of one dispatch write: the chunks of one user
// query the czar sends to one worker, each with the hash its result is read
// at, and the statements once, written for the first listed chunk and its
// first subchunk. The worker binds each listed chunk (and its first listed
// subchunk) into the FROM entries that name the first one's pieces and runs
// it as that chunk's own chunk query; a chunk's result stays addressed by the
// hash of its one-chunk payload (ChunkQuery), the paper's /result/<md5>.
type Dispatch struct {
	Class      QueryClass
	Chunks     []DispatchChunk
	Statements []string
}

// DispatchChunk is one chunk a Dispatch lists: its id, the 32-hex-digit
// hash its result is read at, and the subchunks its job covers (nil when
// the plan uses none).
type DispatchChunk struct {
	Chunk     partition.ChunkID
	Hash      string
	SubChunks []partition.SubChunkID
}

// Payload renders the dispatch in the wire format:
//
//	-- CLASS: INTERACTIVE|FULLSCAN
//	-- CHUNK: <id> <hash>[ <sub0>,<sub1>...]
//	...
//	<SQL statement 1>;
//	...
func (d Dispatch) Payload() []byte {
	b := make([]byte, 0, 64+len(d.Chunks)*48)
	b = append(b, classPrefix+" "...)
	b = append(b, d.Class.String()...)
	b = append(b, '\n')
	for _, c := range d.Chunks {
		b = append(b, chunkPrefix+" "...)
		b = strconv.AppendInt(b, int64(c.Chunk), 10)
		b = append(b, ' ')
		b = append(b, c.Hash...)
		for i, s := range c.SubChunks {
			b = append(b, " ,"[min(i, 1)])
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, '\n')
	}
	for _, st := range d.Statements {
		b = append(b, st...)
		b = append(b, ";\n"...)
	}
	return b
}

const (
	classPrefix     = "-- CLASS:"
	subChunksPrefix = "-- SUBCHUNKS:"
	chunkPrefix     = "-- CHUNK:"
)

// Header is what a payload's header block, its leading comment lines,
// says: the scheduling class (FullScan, the conservative lane, unless a
// valid CLASS line says otherwise), the subchunks a SUBCHUNKS line lists,
// the chunks CHUNK lines list (nil in a one-chunk payload), and the offset
// the statements start at.
type Header struct {
	Class     QueryClass
	SubChunks []partition.SubChunkID
	Chunks    []DispatchChunk
	Body      int
}

// ParseHeader reads a payload's header block in one pass. A subchunk list
// or a CHUNK line that is not one is an error, and so is a payload with
// both a SUBCHUNKS and a CHUNK line.
func ParseHeader(payload []byte) (Header, error) {
	var h Header
	for h.Body < len(payload) && bytes.HasPrefix(payload[h.Body:], []byte("--")) {
		line := payload[h.Body:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i+1]
		}
		h.Body += len(line)
		line = bytes.TrimSpace(line)
		switch {
		case bytes.HasPrefix(line, []byte(classPrefix)):
			h.Class, _ = ParseQueryClass(string(line[len(classPrefix):]))
		case bytes.HasPrefix(line, []byte(chunkPrefix)):
			c, err := parseChunkLine(line[len(chunkPrefix):])
			if err != nil {
				return h, err
			}
			h.Chunks = append(h.Chunks, c)
		case bytes.HasPrefix(line, []byte(subChunksPrefix)):
			subs, err := parseSubChunks(line[len(subChunksPrefix):], h.SubChunks)
			if err != nil {
				return h, err
			}
			h.SubChunks = subs
		}
	}
	if len(h.Chunks) > 0 && h.SubChunks != nil {
		return h, errors.New("core: chunk query header: a SUBCHUNKS line beside CHUNK lines")
	}
	return h, nil
}

// parseChunkLine reads "<id> <hash>[ <subchunk list>]".
func parseChunkLine(v []byte) (DispatchChunk, error) {
	bad := func() (DispatchChunk, error) {
		return DispatchChunk{}, fmt.Errorf("core: chunk query header: bad CHUNK line %q", v)
	}
	v = bytes.TrimSpace(v)
	sp := bytes.IndexByte(v, ' ')
	if sp < 0 {
		return bad()
	}
	id, ok := parseUint(v[:sp])
	rest := bytes.TrimSpace(v[sp:])
	hash, list, _ := bytes.Cut(rest, []byte(" "))
	if !ok || len(hash) != 32 || len(bytes.Trim(hash, "0123456789abcdef")) > 0 {
		return bad()
	}
	c := DispatchChunk{Chunk: partition.ChunkID(id), Hash: string(hash)}
	var err error
	c.SubChunks, err = parseSubChunks(list, nil)
	return c, err
}

// parseSubChunks appends the ids of a comma-separated subchunk list to subs.
func parseSubChunks(list []byte, subs []partition.SubChunkID) ([]partition.SubChunkID, error) {
	for len(list) > 0 {
		var part []byte
		part, list, _ = bytes.Cut(list, []byte(","))
		if part = bytes.TrimSpace(part); len(part) == 0 {
			continue
		}
		id, ok := parseUint(part)
		if !ok {
			return nil, fmt.Errorf("core: chunk query header: bad subchunk id %q", part)
		}
		subs = append(subs, partition.SubChunkID(id))
	}
	return subs, nil
}

// parseUint reads a decimal id of up to nine digits.
func parseUint(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// NewPlanner builds a planner.
func NewPlanner(reg *meta.Registry, index *meta.ObjectIndex) *Planner {
	return &Planner{Registry: reg, Index: index}
}

// Plan analyzes and plans a user SELECT against the given set of placed
// chunks (the chunks that actually hold data; a full-sky query visits
// all of them).
func (pl *Planner) Plan(sel *sqlparse.Select, placed []partition.ChunkID) (*Plan, error) {
	a, err := Analyze(sel, pl.Registry)
	if err != nil {
		return nil, err
	}
	if len(a.PartRefs) == 0 {
		return nil, fmt.Errorf("%w", ErrNoPartitionedTable)
	}

	p := &Plan{Analysis: a, registry: pl.Registry, topK: pl.TopK}
	for _, pr := range a.PartRefs {
		p.Tables = append(p.Tables, strings.ToLower(pr.Info.Name))
	}
	for _, ref := range a.NonPartRefs {
		p.Tables = append(p.Tables, strings.ToLower(ref.Table))
	}
	slices.Sort(p.Tables)
	p.Tables = slices.Compact(p.Tables)

	// Chunk set selection (see BaseRoute). An installed Router (the
	// planopt tier) takes over the whole decision and adds
	// statistics-based pruning.
	if pl.Router != nil {
		p.Route = pl.Router.Route(a, placed)
	} else {
		p.Route = BaseRoute(a, pl.Registry, pl.Index, placed)
	}
	p.Chunks = p.Route.Chunks
	indexDive := p.Route.Kind == RouteIndexDive

	// Scheduling class (paper section 4.3): secondary-index dives and
	// spatially-restricted single-chunk point queries are interactive;
	// everything else is a full scan. An unrestricted query is a table
	// scan even when only one chunk is placed, and any near-neighbor
	// join is expensive even on one chunk.
	singleChunkPoint := a.Region != nil && len(p.Chunks) <= 1
	if a.NearNeighbor == nil && (indexDive || singleChunkPoint) {
		p.Class = Interactive
	} else {
		p.Class = FullScan
	}

	// Near-neighbor plans need subchunk lists and an overlap-margin
	// check (joins are only correct within the stored overlap).
	if a.NearNeighbor != nil {
		overlap := pl.Registry.Chunker.Config().Overlap
		if a.NearNeighbor.Radius > overlap {
			return nil, fmt.Errorf(
				"core: near-neighbor radius %g deg exceeds the partition overlap %g deg",
				a.NearNeighbor.Radius, overlap)
		}
		p.SubChunksByChunk = map[partition.ChunkID][]partition.SubChunkID{}
		for _, c := range p.Chunks {
			var subs []partition.SubChunkID
			var err error
			if a.Region != nil {
				subs, err = pl.Registry.Chunker.SubChunksIn(c, a.Region)
			} else {
				subs, err = pl.Registry.Chunker.AllSubChunks(c)
			}
			if err != nil {
				return nil, err
			}
			p.SubChunksByChunk[c] = subs
		}
	}

	if err := p.buildTemplates(); err != nil {
		return nil, err
	}
	return p, nil
}

// BaseRoute is the chunk selection every route starts from (paper section
// 5.5): the secondary index's chunks for director-key restrictions (when
// there is an index), the placed chunks of the spatial cover for region
// restrictions, all placed chunks otherwise. It is the planner's route
// when no Router is installed, and the one internal/planopt prunes.
//
// placed is ascending (meta.Placement.Chunks) and is only read: a dive or a
// spatial route costs what its own chunks cost, however many are placed.
func BaseRoute(a *Analysis, reg *meta.Registry, index *meta.ObjectIndex, placed []partition.ChunkID) Route {
	rt := Route{Kind: RouteFanOut}
	switch {
	case len(a.ObjectIDs) > 0 && index != nil:
		rt.Kind = RouteIndexDive
		rt.Chunks = diveChunks(index, a.ObjectIDs)
	case a.Region != nil:
		rt.Kind = RouteSpatial
		rt.Chunks = placedOf(reg.Chunker.ChunksIn(a.Region), placed)
	default:
		rt.Chunks = slices.Clone(placed)
	}
	rt.Pruned = max(len(placed)-len(rt.Chunks), 0)
	return rt
}

// diveChunks resolves director-key ids through the secondary index to
// the distinct owning chunks, ascending. Ids absent from the index
// resolve to no chunk at all — the index is total over ingested
// director rows, so such a point query has an empty answer and
// dispatches nothing.
func diveChunks(index *meta.ObjectIndex, ids []int64) []partition.ChunkID {
	var out []partition.ChunkID
	for _, id := range ids {
		if loc, ok := index.Lookup(id); ok {
			out = append(out, loc.Chunk)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// placedOf keeps the chunks of cover that are placed, ascending, in cover's
// own array.
func placedOf(cover, placed []partition.ChunkID) []partition.ChunkID {
	out := cover[:0]
	for _, c := range cover {
		if _, ok := slices.BinarySearch(placed, c); ok {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// CacheKey is the plan's content address for the czar result cache:
// default database, the canonical deparse of the analyzed statement
// (areaspec already rewritten, every other conjunct kept verbatim),
// and the routed chunk set. Two plans with equal keys compute the same
// answer against the same cluster state; the cache pairs the key with
// placement-epoch + ingest-generation stamps so "same cluster state"
// is checked at lookup time, not encoded here.
func (p *Plan) CacheKey() string {
	var sb strings.Builder
	sb.WriteString(p.registry.DB)
	sb.WriteByte('\x00')
	sb.WriteString(p.Analysis.Stmt.SQL())
	sb.WriteByte('\x00')
	var buf [20]byte
	for _, c := range p.Chunks {
		sb.Write(strconv.AppendInt(buf[:0], int64(c), 10))
		sb.WriteByte(',')
	}
	return sb.String()
}

// ResultType returns the storage type of result column i, defaulting
// to DOUBLE when inference recorded nothing.
func (p *Plan) ResultType(i int) sqlparse.ColType {
	if i >= 0 && i < len(p.ResultTypes) {
		return p.ResultTypes[i]
	}
	return sqlparse.TypeFloat
}

// QueryFor renders the chunk query for one chunk: the plan's units for the
// chunk and, under the SUBCHUNKS header, for its first subchunk only.
func (p *Plan) QueryFor(chunk partition.ChunkID) ChunkQuery {
	cq := ChunkQuery{Chunk: chunk, Class: p.Class, SubChunks: p.SubChunksByChunk[chunk]}
	if p.SubChunksByChunk != nil && len(cq.SubChunks) == 0 {
		return cq // no subchunk of the chunk is in the region: nothing to run
	}
	var s0 partition.SubChunkID
	if len(cq.SubChunks) > 0 {
		s0 = cq.SubChunks[0]
	}
	for _, u := range p.units {
		cq.Statements = append(cq.Statements, u.Render(chunk, s0))
	}
	return cq
}

// OutputColumns are the column names of the merged result, what the
// client sees: the merge statement's select items, a `*` standing for
// every worker result column.
func (p *Plan) OutputColumns() []string {
	var out []string
	for _, it := range p.Merge.Items {
		if _, star := it.Expr.(*sqlparse.Star); star {
			out = append(out, p.ResultColumns...)
			continue
		}
		out = append(out, outputNameOf(it))
	}
	return out
}

// Streamable reports whether chunk results pass through the merge
// statement unchanged (modulo concatenation order): nothing to combine
// and a bare `SELECT * FROM <result>` merge. The czar streams such
// results to the caller row-by-row as chunks arrive instead of holding
// them for the final merge.
func (p *Plan) Streamable() bool {
	m := p.Merge
	if p.Combine != nil || m == nil || m.Distinct || m.Where != nil ||
		len(m.GroupBy) > 0 || len(m.OrderBy) > 0 || m.Limit >= 0 {
		return false
	}
	if len(m.Items) != 1 {
		return false
	}
	_, star := m.Items[0].Expr.(*sqlparse.Star)
	return star
}
