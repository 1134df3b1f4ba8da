package member

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/xrd"
)

// RepairConfig tunes the replication manager.
type RepairConfig struct {
	// Factor is the replication factor repair restores.
	Factor int
	// Tables names the partitioned tables whose chunk tables a repair
	// copies: the cluster supplies every ingested partitioned table.
	Tables func() []string
	// Candidates names the current cluster members eligible as repair
	// targets (the repairer filters out dead ones and current holders).
	Candidates func() []string
	// Prepare is called before the first copy an audit makes onto a
	// target: the cluster makes the worker ready to hold chunk tables (a
	// worker that came back empty has lost the catalog itself — over TCP
	// even the table metadata a /repl install looks up — and its
	// replicated tables). An error fails the copy; the chunk stays
	// pending.
	Prepare func(target string) error
	// Rehome is called after a verified copy moved a chunk replica and
	// placement was updated: the hook moves the chunk's fabric export
	// (register `to` first, deregister `from` last, so the chunk is
	// never without a live export). from or to may be empty when a
	// replica was only added or only dropped.
	Rehome func(chunk partition.ChunkID, from, to string)
	// DeadGrace holds re-homing off a freshly dead worker for this long:
	// a durable worker that restarts within the window revives with its
	// chunks recovered from disk, and nothing needs copying. Chunks
	// waiting out the grace count as pending. Zero disables the window
	// (the PR-5 behavior: the first sweep after death re-homes).
	DeadGrace time.Duration
}

const (
	// repairOpTimeout bounds each fabric transaction of a copy.
	repairOpTimeout = 30 * time.Second
	// sweepInterval is the periodic placement-vs-health audit period;
	// health transitions and CheckNow kick an immediate sweep on top of it.
	sweepInterval = 5 * time.Second
)

func (c RepairConfig) withDefaults() RepairConfig {
	if c.Factor < 1 {
		c.Factor = 1
	}
	return c
}

// RepairProgress is the replication manager's cumulative accounting.
type RepairProgress struct {
	// ChunksRepaired counts verified chunk re-homes since startup.
	ChunksRepaired int
	// ChunksHealed counts in-place refills: a live holder whose
	// inventory was missing a chunk placement assigns it (a worker that
	// restarted hollow) had the chunk copied back without any placement
	// change.
	ChunksHealed int
	// ChunksPending counts chunks the last audit left under-replicated
	// (no live source or target yet); they are retried on the next
	// sweep.
	ChunksPending int
	// ColdHolds counts audit observations of a held-but-not-resident
	// chunk: the holder's inventory lists it but its tables are evicted
	// to the holder's chunk store. Cold is healthy — the worker is
	// paging under a memory budget, and the chunk materializes on first
	// touch — so these are never healed or re-homed; the counter exists
	// to make that visible.
	ColdHolds int
	// TablesCopied / BytesCopied meter the copy traffic.
	TablesCopied int
	BytesCopied  int64
	// LastError is the most recent repair failure, empty when the last
	// audit found nothing broken.
	LastError string
}

// Repairer is the replication manager: it audits placement against the
// failure detector and restores under-replicated chunks by copying
// their tables over the fabric's /repl transaction.
type Repairer struct {
	cfg       RepairConfig
	client    *xrd.Client
	placement *meta.Placement
	det       *Detector

	// runMu serializes sweeps and drains: both walk and mutate
	// placement chunk by chunk.
	runMu sync.Mutex

	mu   sync.Mutex
	prog RepairProgress

	// invCache holds per-audit /inventory answers (a nil entry means the
	// read failed and the worker is assumed intact) and prepared the
	// targets the audit has run Prepare on. Guarded by runMu: both are
	// reset at the top of each Sweep/Drain and filled lazily as
	// repairChunk audits holders and copies onto targets.
	invCache map[string]*inventoryAudit
	prepared map[string]bool

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRepairer creates a replication manager; Start launches its audit
// loop (tests may call Sweep directly instead).
func NewRepairer(cfg RepairConfig, client *xrd.Client, placement *meta.Placement, det *Detector) *Repairer {
	return &Repairer{
		cfg:       cfg.withDefaults(),
		client:    client,
		placement: placement,
		det:       det,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
}

// Start launches the background audit loop.
func (r *Repairer) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Close stops the audit loop, waiting for an in-flight sweep.
func (r *Repairer) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// CheckNow kicks an immediate audit (coalesced if one is pending).
func (r *Repairer) CheckNow() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Progress returns the cumulative repair accounting.
func (r *Repairer) Progress() RepairProgress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prog
}

func (r *Repairer) loop() {
	defer r.wg.Done()
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
		case <-t.C:
		}
		r.Sweep()
	}
}

// Sweep audits every placed chunk once: chunks with fewer than Factor
// live replicas are repaired (copy, verify, re-home). The loop calls it
// on kicks and ticks; tests call it directly.
func (r *Repairer) Sweep() {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	r.invCache, r.prepared = nil, map[string]bool{}
	pending := 0
	var lastErr string
	for _, c := range r.placement.Chunks() {
		select {
		case <-r.stop:
			return
		default:
		}
		if err := r.repairChunk(c, ""); err != nil {
			pending++
			lastErr = err.Error()
		}
	}
	r.mu.Lock()
	r.prog.ChunksPending = pending
	r.prog.LastError = lastErr
	r.mu.Unlock()
}

// Drain re-replicates every chunk the worker holds onto other live
// workers, removing the worker from placement chunk by chunk. It fails
// on the first chunk that cannot be moved (leaving already-moved chunks
// moved — the drain can be retried).
func (r *Repairer) Drain(ctx context.Context, worker string) error {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	r.invCache, r.prepared = nil, map[string]bool{}
	for _, c := range r.placement.ChunksOn(worker) {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		if err := r.repairChunk(c, worker); err != nil {
			return fmt.Errorf("member: drain %s: %w", worker, err)
		}
	}
	return nil
}

// repairChunk restores one chunk to Factor live replicas. drain names a
// worker being decommissioned: it never counts toward the factor and is
// never a target, but — being alive — it may serve as the copy source.
//
// The audit distinguishes three holder failure shapes. A holder dead
// past DeadGrace is a victim: its replica re-homes to a fresh worker. A
// holder dead within the grace is left alone — the chunk counts as
// pending while a durable restart gets its chance to revive with data
// intact. A live holder whose /inventory is missing the chunk came back
// hollow (an in-memory restart, or a durable one whose segments failed
// their checksums and were quarantined): it keeps its placement slot
// and the chunk is copied back in place from an intact replica.
func (r *Repairer) repairChunk(c partition.ChunkID, drain string) error {
	holders := r.placement.Workers(c)
	var alive, hollow, victims []string
	graceWait := false
	for _, h := range holders {
		switch {
		case h == drain:
			victims = append(victims, h)
		case r.det != nil && r.det.Dead(h):
			if r.cfg.DeadGrace > 0 {
				if since, ok := r.det.DeadSince(h); ok && time.Since(since) < r.cfg.DeadGrace {
					graceWait = true
					continue
				}
			}
			victims = append(victims, h)
		case r.holderHasChunk(h, c):
			alive = append(alive, h)
		default:
			hollow = append(hollow, h)
		}
	}
	// Refill hollow holders in place before counting replicas: the heal
	// changes no placement, so a fully recovered restart costs zero
	// re-homes and a hollow one costs only copies back to itself.
	for _, h := range hollow {
		if len(alive) == 0 {
			return fmt.Errorf("member: chunk %d: holder %s is missing the chunk and no intact replica can refill it", c, h)
		}
		logger.Info("repair.start", "chunk", int(c), "kind", "heal", "source", alive[0], "target", h)
		if err := r.copyChunk(alive[0], h, c); err != nil {
			logger.Warn("repair.failed", "chunk", int(c), "kind", "heal", "target", h, "err", err)
			return err
		}
		logger.Info("repair.done", "chunk", int(c), "kind", "heal", "target", h)
		r.invCache[h].chunks[c] = true
		alive = append(alive, h)
		r.mu.Lock()
		r.prog.ChunksHealed++
		r.mu.Unlock()
	}
	needed := r.cfg.Factor - len(alive)
	if needed <= 0 {
		if drain != "" {
			// Enough live replicas without the drained worker: drop it.
			for _, v := range victims {
				r.placement.Remove(c, v)
				r.rehome(c, v, "")
			}
		}
		return nil
	}
	if graceWait {
		// Re-homing now would over-replicate the moment the worker
		// revives; keep the chunk pending until the grace runs out.
		return fmt.Errorf("member: chunk %d: holder dead within restart grace (%v); waiting", c, r.cfg.DeadGrace)
	}
	if len(alive) == 0 && drain == "" {
		return fmt.Errorf("member: chunk %d: no surviving replica (holders %v)", c, holders)
	}
	for needed > 0 {
		source := drain
		if len(alive) > 0 {
			source = alive[0]
		}
		target := r.pickTarget(holders)
		if target == "" {
			return fmt.Errorf("member: chunk %d: no live worker available as a repair target", c)
		}
		logger.Info("repair.start", "chunk", int(c), "kind", "rehome", "source", source, "target", target)
		if err := r.copyChunk(source, target, c); err != nil {
			logger.Warn("repair.failed", "chunk", int(c), "kind", "rehome", "target", target, "err", err)
			return err
		}
		logger.Info("repair.done", "chunk", int(c), "kind", "rehome", "source", source, "target", target)
		// The copy is verified: re-home the replica. Placement first
		// (atomic per chunk, epoch bump), then the fabric export via the
		// hook — surviving replicas keep serving throughout, so queries
		// stay correct mid-repair.
		victim := ""
		if len(victims) > 0 {
			victim, victims = victims[0], victims[1:]
		}
		r.placement.Replace(c, victim, target)
		r.rehome(c, victim, target)
		alive = append(alive, target)
		holders = append(holders, target)
		needed--
		r.mu.Lock()
		r.prog.ChunksRepaired++
		r.mu.Unlock()
	}
	return nil
}

// inventoryAudit is one worker's parsed /inventory answer for the
// duration of a sweep.
type inventoryAudit struct {
	// chunks is what the worker holds — on disk or in memory. This is
	// the set placement is audited against.
	chunks map[partition.ChunkID]bool
	// resident is the materialized subset, nil when the worker omitted
	// it (an in-memory worker, or a pre-residency one).
	resident map[partition.ChunkID]bool
}

// holderHasChunk audits a live holder's actual chunk set against
// placement's belief, via the fabric's /inventory read. Answers are
// cached for the duration of one sweep (callers hold runMu). A failed
// read leaves the worker assumed intact: the detector, not this audit,
// decides deadness, and a transiently unreachable-but-alive worker must
// not trigger spurious copies.
//
// The audit decision is made on the holder's inventory, NOT on
// residency: a chunk evicted to the holder's store under a memory
// budget is still held — healing it in place would re-materialize every
// cold chunk each sweep and defeat the paging. Cold observations are
// only counted (Progress().ColdHolds).
func (r *Repairer) holderHasChunk(h string, c partition.ChunkID) bool {
	if r.invCache == nil {
		r.invCache = map[string]*inventoryAudit{}
	}
	inv, fetched := r.invCache[h]
	if !fetched {
		ctx, done := context.WithTimeout(context.Background(), repairOpTimeout)
		data, err := r.client.ReadFrom(ctx, h, xrd.InventoryPath)
		done()
		if err == nil {
			var doc xrd.Inventory
			if json.Unmarshal(data, &doc) == nil {
				inv = &inventoryAudit{chunks: map[partition.ChunkID]bool{}}
				for _, id := range doc.Chunks {
					inv.chunks[partition.ChunkID(id)] = true
				}
				if doc.Resident != nil {
					inv.resident = map[partition.ChunkID]bool{}
					for _, id := range doc.Resident {
						inv.resident[partition.ChunkID(id)] = true
					}
				}
			}
		}
		r.invCache[h] = inv
	}
	if inv == nil {
		return true
	}
	if inv.chunks[c] {
		if inv.resident != nil && !inv.resident[c] {
			r.mu.Lock()
			r.prog.ColdHolds++
			r.mu.Unlock()
		}
		return true
	}
	return false
}

func (r *Repairer) rehome(c partition.ChunkID, from, to string) {
	if r.cfg.Rehome != nil {
		r.cfg.Rehome(c, from, to)
	}
}

// pickTarget chooses the live non-holder with the fewest chunks.
func (r *Repairer) pickTarget(holders []string) string {
	holding := map[string]bool{}
	for _, h := range holders {
		holding[h] = true
	}
	var candidates []string
	if r.cfg.Candidates != nil {
		candidates = r.cfg.Candidates()
	}
	counts := r.placement.Counts()
	best, bestLoad := "", -1
	for _, w := range candidates {
		if holding[w] || (r.det != nil && r.det.Dead(w)) {
			continue
		}
		if load := counts[w]; best == "" || load < bestLoad {
			best, bestLoad = w, load
		}
	}
	return best
}

// copyChunk copies every partitioned table's chunk data from source to
// target over /repl, each table verified (CopyVerified).
func (r *Repairer) copyChunk(source, target string, c partition.ChunkID) error {
	if r.cfg.Prepare != nil && !r.prepared[target] {
		if err := r.cfg.Prepare(target); err != nil {
			return fmt.Errorf("member: repair chunk %d: prepare %s: %w", c, target, err)
		}
		r.prepared[target] = true
	}
	var tables []string
	if r.cfg.Tables != nil {
		tables = r.cfg.Tables()
	}
	for _, tbl := range tables {
		ctx, done := context.WithTimeout(context.Background(), repairOpTimeout)
		n, err := CopyVerified(ctx, r.client, source, target, xrd.ReplPath(tbl, int(c)))
		done()
		if err != nil {
			return fmt.Errorf("member: repair chunk %d table %s: %w", c, tbl, err)
		}
		r.mu.Lock()
		r.prog.TablesCopied++
		r.prog.BytesCopied += int64(n)
		r.mu.Unlock()
	}
	return nil
}

// CopyVerified moves one /repl unit — a chunk of a partitioned table, or a
// replicated table — from source to target and verifies it by reading it
// back: the target's re-export must be byte-identical (the codec is
// deterministic and /repl installs preserve row order). It returns the
// bytes shipped.
func CopyVerified(ctx context.Context, client *xrd.Client, source, target, path string) (int, error) {
	data, err := client.ReadFrom(ctx, source, path)
	if err == nil {
		err = client.WriteTo(ctx, target, path, data)
	}
	var back []byte
	if err == nil {
		back, err = client.ReadFrom(ctx, target, path)
	}
	if err == nil && !bytes.Equal(data, back) {
		err = fmt.Errorf("copy verification failed (%d bytes out, %d back)", len(data), len(back))
	}
	if err != nil {
		return 0, fmt.Errorf("%s -> %s: %w", source, target, err)
	}
	return len(data), nil
}
