// Package planopt is the czar's routing tier: it chooses the chunk set
// for each analyzed query before dispatch. It layers three mechanisms, in
// decreasing selectivity:
//
//  1. Index dives — `objectId = ?` / `IN (...)` director-key
//     restrictions resolve through the ingest-built secondary index to
//     the owning chunk(s), turning a point query into one job per
//     replica-holding chunk instead of a full fan-out.
//  2. Spatial pruning — WHERE-derived regions (areaspec calls,
//     ra/decl range conjunctions, literal-point cones) intersect the
//     partitioning geometry's cover with the placed chunk set.
//  3. Statistics pruning — per-chunk min/max column statistics
//     recorded at ingest eliminate chunks whose value ranges are
//     disjoint from non-spatial range conjuncts.
//
// Dives and spatial pruning are core.BaseRoute, the planner's own route:
// correctness-preserving restrictions of the answer's support, so they
// are always on. Statistics pruning, the one mechanism this package adds,
// is gated by Config.Pruning (the qserv.ClusterConfig.ChunkPruning knob)
// because it depends on ingest-recorded metadata.
package planopt

import (
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/partition"
)

// Config tunes the optimizer.
type Config struct {
	// Pruning enables statistics-based chunk elimination. Index dives
	// and spatial pruning are unaffected — they are pure restrictions
	// derived from the query itself.
	Pruning bool
}

// Optimizer implements core.Router over the frontend metadata: catalog
// registry (geometry), secondary object index, and per-chunk column
// statistics. All three views are shared with ingest and repair and
// are safe for concurrent use.
type Optimizer struct {
	reg   *meta.Registry
	index *meta.ObjectIndex // may be nil
	stats *meta.ChunkStats  // may be nil
	cfg   Config
}

// New builds the routing tier. index and stats may be nil; the
// corresponding mechanisms then stay dormant.
func New(reg *meta.Registry, index *meta.ObjectIndex, stats *meta.ChunkStats, cfg Config) *Optimizer {
	return &Optimizer{reg: reg, index: index, stats: stats, cfg: cfg}
}

// Route picks the chunk set for one analyzed query from the currently
// placed chunks: core.BaseRoute's, statistics-pruned.
func (o *Optimizer) Route(a *core.Analysis, placed []partition.ChunkID) core.Route {
	rt := core.BaseRoute(a, o.reg, o.index, placed)

	// Statistics pruning refines any base route: a chunk whose recorded
	// min/max for some range-restricted column is disjoint from the
	// predicate cannot contribute rows, whichever mechanism selected
	// it. Near-neighbor plans are excluded — their overlap-table rows
	// are not observed by the ingest statistics.
	if o.cfg.Pruning && o.stats != nil && a.NearNeighbor == nil && len(a.Ranges) > 0 {
		kept := rt.Chunks[:0:len(rt.Chunks)]
		for _, c := range rt.Chunks {
			if o.mayMatch(a, c) {
				kept = append(kept, c)
			}
		}
		if len(kept) < len(rt.Chunks) && rt.Kind == core.RouteFanOut {
			rt.Kind = core.RouteStats
		}
		rt.Chunks = kept
		rt.Pruned = max(len(placed)-len(rt.Chunks), 0)
	}
	return rt
}

// mayMatch reports whether chunk c can satisfy every recorded range
// restriction. Ranges on the same table as the chunk query are a valid
// pruning witness for the whole chunk job: every partitioned ref in the
// statement reads that same chunk.
func (o *Optimizer) mayMatch(a *core.Analysis, c partition.ChunkID) bool {
	for _, r := range a.Ranges {
		if !o.stats.MayMatch(r.Table, c, r.Column, r.Lo, r.Hi, r.HasLo, r.HasHi) {
			return false
		}
	}
	return true
}
