// Package simcluster regenerates the paper's evaluation (section 6) at
// laptop scale. Real chunk queries execute on real (scaled-down) data —
// every number that reaches a figure came from an actual distributed
// execution — while *time* comes from a calibrated cost model driven by
// the engine's per-query I/O metering, scaled to the paper's table
// sizes and replayed through a discrete-event simulation of the
// cluster: a serialized master dispatching chunk queries, per-node FIFO
// queues with bounded slots, a disk model, and serialized master-side
// result loading (the mysqldump path).
//
// This split is what makes weak-scaling curves (Figures 8-13)
// reproducible on one machine: real cores do not grow with simulated
// node count, so wall-clock time cannot show the paper's flat curves,
// but virtual time can — while correctness still rests on real
// execution.
package simcluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	qserv "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/xrd"
)

// CostModel holds the calibrated constants converting metered I/O into
// virtual seconds. Defaults are derived from the paper's own numbers.
type CostModel struct {
	// UncontendedBW is a node's aggregate sequential read rate with a
	// single active stream, bytes/s. The paper derives ~76 MB/s per
	// node from its faster HV2 runs (section 6.2) against the disk's
	// 98 MB/s spec.
	UncontendedBW float64
	// ContendedBW is the node's aggregate rate once multiple streams
	// compete and induce seeks: the paper's uncached HV2 Run 3 yields
	// 27 MB/s per node with 4 queries per node in flight.
	ContendedBW float64
	// SeekTime is the cost of one random read (index lookup), seconds.
	SeekTime float64
	// PerPairCPU is the CPU cost of evaluating one join pair, seconds.
	PerPairCPU float64
	// DispatchCost is the master's fixed per-chunk work (generate,
	// write transaction, track): HV1's ~25 s / 8983 chunks ~= 2.8 ms.
	DispatchCost float64
	// ResultLoadRate is the master's mysqldump-load throughput, bytes/s.
	ResultLoadRate float64
	// PerResultOverhead is the master's fixed per-result cost, seconds.
	PerResultOverhead float64
	// FixedOverhead is the per-query session cost (proxy, parse, result
	// table setup). The paper's low-volume queries are dominated by it:
	// ~4 s regardless of query (section 6.2).
	FixedOverhead float64
	// SlotsPerNode is the per-worker parallel query limit (paper: 4).
	SlotsPerNode int
}

// DefaultCostModel returns constants calibrated against the paper.
func DefaultCostModel() CostModel {
	return CostModel{
		UncontendedBW:     76e6,
		ContendedBW:       27e6,
		SeekTime:          0.008,
		PerPairCPU:        2e-6,
		DispatchCost:      0.0028,
		ResultLoadRate:    20e6,
		PerResultOverhead: 0.0002,
		FixedOverhead:     3.8,
		SlotsPerNode:      4,
	}
}

// aggBW returns the node's aggregate disk bandwidth with k active
// streams (k >= 1).
func (m CostModel) aggBW(k int) float64 {
	if k <= 1 {
		return m.UncontendedBW
	}
	return m.ContendedBW
}

// Scale converts metered stats on scaled-down data to paper-scale I/O.
type Scale struct {
	// Bytes multiplies sequential bytes (paper bytes-per-chunk over
	// local bytes-per-chunk for the dominant table).
	Bytes float64
	// RowScale is the paper-rows over local-rows ratio of the dominant
	// table; near-neighbor pair counts are derived from it
	// analytically (quadratic scaling of sparsely sampled pair counts
	// is numerically unstable).
	RowScale float64
	// Pairs multiplies metered join pairs for non-self-joins (director
	// joins scale linearly with rows).
	Pairs float64
	// PairSeconds overrides the model's PerPairCPU when positive. The
	// SHV2 experiment uses it: MyISAM resolves a director join by
	// index probes into an out-of-cache table, costing a seek-scale
	// unit per pair rather than a CPU-scale unit.
	PairSeconds float64
	// Result multiplies the shipped result size (1 for fixed-size
	// results like point lookups and selective filters).
	Result float64
}

// Cluster is the simulated deployment.
type Cluster struct {
	Nodes    int
	Chunker  *partition.Chunker
	Registry *meta.Registry
	Index    *meta.ObjectIndex
	Model    CostModel

	// inner is the real cluster the chunk queries execute on: it
	// partitions, places and loads the catalog; node maps its workers'
	// names to simulated node indexes (join order).
	inner   *qserv.Cluster
	node    map[string]int
	planner *core.Planner

	mu    sync.Mutex
	cache map[string]chunkCost // payload hash -> measured cost

	// rowCounts holds loaded rows per table, for scale factors.
	rowCounts map[string]int64
	// sampleIDs is a deterministic sample of loaded objectIds for
	// randomized point-query workloads.
	sampleIDs []int64
}

type chunkCost struct {
	stats       sqlengine.ExecStats
	resultBytes int64
	rows        int64
}

// Config sizes the simulated cluster.
type Config struct {
	// Nodes is the simulated node count (paper: up to 150).
	Nodes int
	// Partition is the partitioning geometry (paper: 85 x 12, 1').
	Partition partition.Config
	// Model is the cost model.
	Model CostModel
}

// PaperConfig reproduces the paper's 150-node test deployment.
func PaperConfig() Config {
	return Config{Nodes: 150, Partition: partition.PaperConfig(), Model: DefaultCostModel()}
}

// New assembles the simulated cluster and loads the catalog: a real
// in-process qserv.Cluster of cfg.Nodes workers, one replica per chunk,
// with everything that would perturb the metering off — no span trailer on
// the result bytes, no repair traffic.
func New(cfg Config, cat *datagen.Catalog) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("simcluster: Nodes must be >= 1")
	}
	ccfg := qserv.DefaultClusterConfig(cfg.Nodes)
	ccfg.Partition = cfg.Partition
	ccfg.WorkerSlots = 2 // real execution concurrency; virtual queues are simulated
	ccfg.SelfHeal = false
	ccfg.DisableTelemetry = true
	inner, err := qserv.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	if err := inner.Load(cat); err != nil {
		inner.Close()
		return nil, err
	}
	cl := &Cluster{
		Nodes:    cfg.Nodes,
		Chunker:  inner.Chunker,
		Registry: inner.Registry,
		Index:    inner.Index,
		Model:    cfg.Model,
		inner:    inner,
		node:     map[string]int{},
		planner:  core.NewPlanner(inner.Registry, inner.Index),
		cache:    map[string]chunkCost{},
		rowCounts: map[string]int64{
			"Object": int64(len(cat.Objects)),
			"Source": int64(len(cat.Sources)),
		},
	}
	for i, name := range inner.WorkerNames() {
		cl.node[name] = i
	}
	for i := 0; i < len(cat.Objects); i += 97 {
		cl.sampleIDs = append(cl.sampleIDs, cat.Objects[i].ObjectID)
	}
	return cl, nil
}

// Close stops the underlying cluster.
func (cl *Cluster) Close() { cl.inner.Close() }

// nodeOf maps a chunk to its node index.
func (cl *Cluster) nodeOf(c partition.ChunkID) int {
	ws := cl.inner.Placement.Workers(c)
	if len(ws) == 0 {
		return 0
	}
	return cl.node[ws[0]]
}

// PlacedChunks returns all data-bearing chunks.
func (cl *Cluster) PlacedChunks() []partition.ChunkID { return cl.inner.Placement.Chunks() }

// ChunksOnFirstNodes returns chunks living on nodes [0, n) — the
// paper's method for varying cluster size: "the frontend was configured
// to only dispatch queries for partitions belonging to the desired set
// of cluster nodes", keeping data per node constant (section 6.3).
func (cl *Cluster) ChunksOnFirstNodes(n int) []partition.ChunkID {
	var out []partition.ChunkID
	for _, c := range cl.inner.Placement.Chunks() {
		if cl.nodeOf(c) < n {
			out = append(out, c)
		}
	}
	return out
}

// measure executes one chunk query for real and returns its metered
// cost, caching by payload hash.
func (cl *Cluster) measure(chunk partition.ChunkID, payload []byte) (chunkCost, error) {
	hash := xrd.ResultPath(payload)
	cl.mu.Lock()
	if cc, ok := cl.cache[hash]; ok {
		cl.mu.Unlock()
		return cc, nil
	}
	cl.mu.Unlock()

	w := cl.inner.Workers[cl.nodeOf(chunk)]
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), payload); err != nil {
		return chunkCost{}, err
	}
	data, err := w.HandleRead(hash)
	if err != nil {
		return chunkCost{}, err
	}
	// Find the report for this hash.
	var stats sqlengine.ExecStats
	var rows int64
	for _, r := range w.Reports() {
		if r.Hash == strings.TrimPrefix(hash, "/result/") {
			stats = r.Stats
			rows = r.Stats.RowsOut
		}
	}
	cc := chunkCost{stats: stats, resultBytes: int64(len(data)), rows: rows}
	cl.mu.Lock()
	cl.cache[hash] = cc
	cl.mu.Unlock()
	return cc, nil
}

// jobCost converts a measured chunk cost into the simulation's units:
// disk bytes (shared-rate), CPU seconds (unshared), and master load
// seconds. nnPairs, when >= 0, replaces the metered pair count (the
// analytic near-neighbor model).
func (m CostModel) jobCost(cc chunkCost, sc Scale, nnPairs float64) (ioBytes, cpu, load float64) {
	ioBytes = float64(cc.stats.SeqBytes) * sc.Bytes
	// Random fetches move paper-width rows, not scan-scaled volumes;
	// their cost is the seek, charged as CPU-like fixed time.
	ioBytes += float64(cc.stats.RandBytes)
	cpu = float64(cc.stats.RandReads) * m.SeekTime
	pairCost := m.PerPairCPU
	if sc.PairSeconds > 0 {
		pairCost = sc.PairSeconds
	}
	// PairsConsidered counts the pairs a join visited. For a near-neighbour
	// plan that is what the worker's band join left of a subchunk's pairs at
	// laptop density, which says nothing about the paper's: those plans are
	// always costed from analyticNNPairs (nnPairs >= 0), so the figures did
	// not move when the band join arrived. The metered count prices the
	// other joins (hash joins, whose pairs are their matches).
	pairs := float64(cc.stats.PairsConsidered) * sc.Pairs
	if nnPairs >= 0 {
		pairs = nnPairs
	}
	cpu += pairs * pairCost
	load = float64(cc.resultBytes)*sc.Result/m.ResultLoadRate + m.PerResultOverhead
	return ioBytes, cpu, load
}

// QuerySpec is one query in a simulated workload.
type QuerySpec struct {
	// SQL is the user query.
	SQL string
	// Arrival is the virtual submission time, seconds.
	Arrival float64
	// Scale converts this query's metered I/O to paper scale.
	Scale Scale
	// Restrict dispatches only to this chunk set (nil = all placed);
	// used for the paper's weak-scaling methodology.
	Restrict []partition.ChunkID
	// Label tags the query in results.
	Label string
}

// QueryTiming is a simulated query's life cycle.
type QueryTiming struct {
	Label string
	// Arrival, Start and End are virtual seconds.
	Arrival, End float64
	// Elapsed = End - Arrival.
	Elapsed float64
	// Chunks dispatched; Rows in the final (unmerged) result set.
	Chunks int
	Rows   int64
}

// simJob is one chunk query instance in the event simulation.
type simJob struct {
	query    int
	node     int
	arrival  float64 // when the master finished dispatching it
	ioBytes  float64 // disk work at paper scale (shared-rate)
	cpu      float64 // CPU seconds (unshared)
	load     float64 // master-side load seconds
	complete float64 // filled by node scheduling
}

// Run executes the workload: real executions gather per-chunk costs,
// then the discrete-event model computes virtual timings.
func (cl *Cluster) Run(specs []QuerySpec) ([]QueryTiming, error) {
	timings := make([]QueryTiming, len(specs))
	jobsPerQuery := make([][]*simJob, len(specs))

	// Phase 1: plan and measure every chunk query (real execution).
	for qi, spec := range specs {
		sel, err := sqlparse.ParseSelect(spec.SQL)
		if err != nil {
			return nil, fmt.Errorf("simcluster: %q: %w", spec.SQL, err)
		}
		placed := spec.Restrict
		if placed == nil {
			placed = cl.inner.Placement.Chunks()
		}
		plan, err := cl.planner.Plan(sel, placed)
		if err != nil {
			return nil, fmt.Errorf("simcluster: plan %q: %w", spec.SQL, err)
		}
		var rows int64
		for _, chunk := range plan.Chunks {
			payload := plan.QueryFor(chunk).Payload()
			cc, err := cl.measure(chunk, payload)
			if err != nil {
				return nil, fmt.Errorf("simcluster: chunk %d of %q: %w", chunk, spec.SQL, err)
			}
			rows += cc.rows
			// Near-neighbor plans: derive paper-scale pair counts
			// analytically from per-subchunk object density.
			nnPairs := -1.0
			if plan.SubChunksByChunk != nil {
				nnPairs = cl.analyticNNPairs(plan, chunk, spec.Scale.RowScale)
			}
			ioBytes, cpu, load := cl.Model.jobCost(cc, spec.Scale, nnPairs)
			jobsPerQuery[qi] = append(jobsPerQuery[qi], &simJob{
				query:   qi,
				node:    cl.nodeOf(chunk),
				ioBytes: ioBytes,
				cpu:     cpu,
				load:    load,
			})
		}
		timings[qi] = QueryTiming{
			Label:   spec.Label,
			Arrival: spec.Arrival,
			Chunks:  len(plan.Chunks),
			Rows:    rows,
		}
	}

	// Phase 2: discrete-event replay.
	cl.replay(specs, jobsPerQuery, timings)
	return timings, nil
}

// replay models: (a) a single serialized master dispatcher that, per
// query in arrival order, emits one chunk query every DispatchCost
// seconds; (b) per-node FIFO queues draining into SlotsPerNode slots;
// (c) a serialized master loader folding results into the session
// table; (d) a fixed per-query session overhead.
func (cl *Cluster) replay(specs []QuerySpec, jobsPerQuery [][]*simJob, timings []QueryTiming) {
	m := cl.Model
	slots := m.SlotsPerNode
	if slots < 1 {
		slots = 1
	}

	// (a) master dispatch: one serialized dispatcher (the section 7.6
	// bottleneck) working round-robin across the queries in flight, so
	// concurrent sessions interleave their chunk streams.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return specs[order[a]].Arrival < specs[order[b]].Arrival })
	pending := make([]int, len(specs)) // next undispatched job per query
	t := 0.0
	remaining := 0
	for _, jobs := range jobsPerQuery {
		remaining += len(jobs)
	}
	rr := 0
	for remaining > 0 {
		// Queries that have arrived and still have chunks to dispatch.
		var active []int
		earliest := -1.0
		for _, qi := range order {
			if pending[qi] >= len(jobsPerQuery[qi]) {
				continue
			}
			if specs[qi].Arrival <= t {
				active = append(active, qi)
			} else if earliest < 0 || specs[qi].Arrival < earliest {
				earliest = specs[qi].Arrival
			}
		}
		if len(active) == 0 {
			t = earliest
			continue
		}
		qi := active[rr%len(active)]
		rr++
		t += m.DispatchCost
		jobsPerQuery[qi][pending[qi]].arrival = t
		pending[qi]++
		remaining--
	}

	// (b) node scheduling: global FIFO per node, processor-sharing
	// disk. Up to SlotsPerNode jobs run at once; active jobs in their
	// I/O phase share the node's aggregate bandwidth (which itself
	// degrades under contention — the paper's 76 vs 27 MB/s), then run
	// their CPU phase unshared.
	byNode := map[int][]*simJob{}
	for _, jobs := range jobsPerQuery {
		for _, j := range jobs {
			byNode[j.node] = append(byNode[j.node], j)
		}
	}
	for _, jobs := range byNode {
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].arrival < jobs[b].arrival })
		cl.scheduleNode(jobs, slots)
	}

	// (c) master loading: one loader, jobs in completion order.
	var all []*simJob
	for _, jobs := range jobsPerQuery {
		all = append(all, jobs...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].complete < all[b].complete })
	loaderFree := 0.0
	queryDone := make([]float64, len(specs))
	for i := range queryDone {
		queryDone[i] = specs[i].Arrival
	}
	for _, j := range all {
		start := j.complete
		if loaderFree > start {
			start = loaderFree
		}
		loaderFree = start + j.load
		if loaderFree > queryDone[j.query] {
			queryDone[j.query] = loaderFree
		}
	}

	// (d) session overhead.
	for qi := range specs {
		end := queryDone[qi] + m.FixedOverhead
		timings[qi].End = end
		timings[qi].Elapsed = end - specs[qi].Arrival
	}
}

// scheduleNode fills in completion times for one node's jobs (FIFO
// admission into `slots` concurrent sessions, processor-sharing disk,
// then an unshared CPU phase).
func (cl *Cluster) scheduleNode(jobs []*simJob, slots int) {
	type active struct {
		j      *simJob
		ioRem  float64
		cpuRem float64
	}
	const eps = 1e-12
	var act []*active
	next := 0 // next queued job
	t := 0.0
	if len(jobs) > 0 {
		t = jobs[0].arrival
	}
	for len(act) > 0 || next < len(jobs) {
		// Admit FIFO while slots are free.
		for len(act) < slots && next < len(jobs) && jobs[next].arrival <= t+eps {
			j := jobs[next]
			act = append(act, &active{j: j, ioRem: j.ioBytes, cpuRem: j.cpu})
			next++
		}
		if len(act) == 0 {
			t = jobs[next].arrival
			continue
		}
		// Current rates.
		nio := 0
		for _, a := range act {
			if a.ioRem > eps {
				nio++
			}
		}
		perStream := 0.0
		if nio > 0 {
			perStream = cl.Model.aggBW(nio) / float64(nio)
		}
		// Time to next event: an active completion-phase boundary or a
		// new arrival into a free slot.
		dt := 1e18
		for _, a := range act {
			if a.ioRem > eps {
				if d := a.ioRem / perStream; d < dt {
					dt = d
				}
			} else if a.cpuRem > eps {
				if d := a.cpuRem; d < dt {
					dt = d
				}
			} else {
				dt = 0
			}
		}
		if len(act) < slots && next < len(jobs) {
			if d := jobs[next].arrival - t; d < dt {
				dt = d
			}
		}
		if dt < 0 {
			dt = 0
		}
		// Advance.
		t += dt
		keep := act[:0]
		for _, a := range act {
			if a.ioRem > eps {
				a.ioRem -= perStream * dt
				if a.ioRem < eps {
					a.ioRem = 0
				}
			} else if a.cpuRem > eps {
				a.cpuRem -= dt
				if a.cpuRem < eps {
					a.cpuRem = 0
				}
			}
			if a.ioRem <= eps && a.cpuRem <= eps {
				a.j.complete = t
				continue
			}
			keep = append(keep, a)
		}
		act = keep
	}
}

// analyticNNPairs estimates the paper-scale pair evaluations of a
// near-neighbor chunk query: each of S planned subchunks joins its
// paper-scale rows against itself and its thin overlap margin (a 1.15
// factor covers the margin at the paper's 1-arcminute setting). The
// mean chunk density is used rather than the chunk's sampled row count:
// with only a few local rows per chunk, squaring per-chunk counts would
// amplify Poisson sampling noise far beyond the sky's real density
// variation.
func (cl *Cluster) analyticNNPairs(plan *core.Plan, chunk partition.ChunkID, rowScale float64) float64 {
	if rowScale <= 0 {
		rowScale = 1
	}
	subs := plan.SubChunksByChunk[chunk]
	if len(subs) == 0 {
		return 0
	}
	all, err := cl.Chunker.AllSubChunks(chunk)
	if err != nil || len(all) == 0 {
		return 0
	}
	placed := len(cl.inner.Placement.Chunks())
	if placed == 0 {
		return 0
	}
	meanChunkRows := float64(cl.rowCounts["Object"]) / float64(placed)
	nChunk := meanChunkRows * rowScale
	perSub := nChunk / float64(len(all))
	return float64(len(subs)) * perSub * perSub * 1.15
}
