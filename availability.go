package qserv

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/member"
	"repro/internal/partition"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// This file is the public face of cluster availability: elastic
// membership (AddWorker / RemoveWorker), the health and repair snapshot
// (Status), and the cluster-side hooks the internal/member subsystem
// drives — re-homing a chunk's fabric export after a verified repair
// copy, naming the tables a repair must move, and filtering dead
// workers out of ingest placement. Every type in the signatures is
// qserv-owned; internal/member never leaks through.

// WorkerState is a worker's health as the failure detector sees it.
type WorkerState string

// The worker health states.
const (
	// WorkerAlive: the last fabric /ping succeeded.
	WorkerAlive WorkerState = "ALIVE"
	// WorkerSuspect: some consecutive pings missed; dispatch still uses
	// the worker.
	WorkerSuspect WorkerState = "SUSPECT"
	// WorkerDead: the miss threshold passed; dispatch skips the worker
	// and (with SelfHeal) its chunks are re-replicated. Probing
	// continues — the first successful ping revives it.
	WorkerDead WorkerState = "DEAD"
)

func stateFromMember(s member.State) WorkerState {
	switch s {
	case member.StateSuspect:
		return WorkerSuspect
	case member.StateDead:
		return WorkerDead
	default:
		return WorkerAlive
	}
}

// WorkerStatus is one worker's row in a ClusterStatus.
type WorkerStatus struct {
	// Name is the worker's cluster identity.
	Name string
	// State is the failure detector's classification.
	State WorkerState
	// Chunks is the number of chunks placement assigns the worker.
	Chunks int
	// Misses counts consecutive failed health probes.
	Misses int
	// LastSeen is the time of the last successful probe.
	LastSeen time.Time
	// LastError is the text of the last probe failure, empty when alive.
	LastError string
}

// RepairProgress is the replication manager's cumulative accounting.
type RepairProgress struct {
	// ChunksRepaired counts verified chunk re-homes since the cluster
	// started.
	ChunksRepaired int
	// ChunksHealed counts in-place refills: a live worker that came back
	// missing a chunk placement assigns it (a restart without durable
	// data, or with segments that failed their checksums) had the chunk
	// copied back without any placement change.
	ChunksHealed int
	// ChunksPending counts chunks the last audit left under-replicated;
	// they are retried on the next sweep (or when a worker is added).
	ChunksPending int
	// TablesCopied / BytesCopied meter the repair copy traffic.
	TablesCopied int
	BytesCopied  int64
	// LastError is the most recent repair failure, empty when the last
	// audit found nothing broken.
	LastError string
}

// CacheStats snapshots the czar result cache. Enabled is false when
// the cluster runs without one (ResultCacheBytes 0).
type CacheStats struct {
	Enabled bool
	// Hits and Misses count lookups; a stamp-mismatch lookup counts as
	// both a miss and an invalidation.
	Hits, Misses int64
	// Evictions counts entries dropped for space; Invalidations counts
	// entries dropped because the placement epoch or a referenced
	// table's ingest generation moved on.
	Evictions, Invalidations int64
	// Entries and Bytes describe occupancy against the MaxBytes budget.
	Entries  int
	Bytes    int64
	MaxBytes int64
	// Epoch is the newest placement epoch the cache has validated
	// entries against.
	Epoch int64
}

// ClusterStatus is a point-in-time snapshot of cluster availability:
// per-worker health and chunk counts, repair progress, result-cache
// counters, and the placement epoch (a counter bumped by every
// placement mutation).
type ClusterStatus struct {
	PlacementEpoch int64
	Workers        []WorkerStatus
	Repair         RepairProgress
	Cache          CacheStats
}

// Status snapshots the cluster's availability.
func (cl *Cluster) Status() ClusterStatus {
	ms := cl.member.Status()
	out := ClusterStatus{
		PlacementEpoch: ms.Epoch,
		Repair: RepairProgress{
			ChunksRepaired: ms.Repair.ChunksRepaired,
			ChunksHealed:   ms.Repair.ChunksHealed,
			ChunksPending:  ms.Repair.ChunksPending,
			TablesCopied:   ms.Repair.TablesCopied,
			BytesCopied:    ms.Repair.BytesCopied,
			LastError:      ms.Repair.LastError,
		},
	}
	if cs, ok := cl.Czar.CacheStats(); ok {
		out.Cache = CacheStats{
			Enabled: true,
			Hits:    cs.Hits, Misses: cs.Misses,
			Evictions: cs.Evictions, Invalidations: cs.Invalidations,
			Entries: cs.Entries, Bytes: cs.Bytes, MaxBytes: cs.MaxBytes,
			Epoch: cs.Epoch,
		}
	}
	for _, w := range ms.Workers {
		out.Workers = append(out.Workers, WorkerStatus{
			Name:      w.Name,
			State:     stateFromMember(w.State),
			Chunks:    w.Chunks,
			Misses:    w.Misses,
			LastSeen:  w.LastSeen,
			LastError: w.LastErr,
		})
	}
	return out
}

// addIngestWaitTimeout bounds how long AddWorker waits for in-flight
// ingests to finish before giving up (the join must serialize with
// them; see AddWorker).
const addIngestWaitTimeout = 30 * time.Second

// AddWorker grows the cluster by one empty worker. The worker is seeded
// with every ingested replicated table (copied from a live peer over
// the fabric's /repl transaction), registered with the redirector and
// the failure detector, and immediately eligible as a repair target —
// adding a worker retries any chunk whose re-replication previously
// failed for want of a target. New director chunks from later ingests
// land on it through the normal placement ring. Joins serialize with
// ingests: a replicated ingest snapshots the membership when it starts
// shipping and the seed below only copies completed tables, so a
// worker joining mid-ingest would miss that table's rows from both
// paths — AddWorker therefore waits (bounded) for in-flight ingests
// and holds the ingest gate until the worker is a member.
func (cl *Cluster) AddWorker(name string) error {
	if len(cl.Config.WorkerAddrs) > 0 {
		return ErrRemoteCluster
	}
	if name == "" {
		return fmt.Errorf("qserv: AddWorker: empty worker name")
	}
	deadline := time.Now().Add(addIngestWaitTimeout)
	for {
		cl.ingestMu.Lock()
		if len(cl.ingesting) == 0 {
			break // gate held: no ingest can begin until the join completes
		}
		inflight := len(cl.ingesting)
		cl.ingestMu.Unlock()
		if time.Now().After(deadline) {
			return fmt.Errorf("qserv: AddWorker %s: %d ingests in flight; retry when they finish", name, inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer cl.ingestMu.Unlock()
	// Joins serialize on the gate, so the name cannot be taken between
	// this check and the join below.
	cl.memberMu.Lock()
	_, dup := cl.endpoints[name]
	cl.memberMu.Unlock()
	if dup {
		return fmt.Errorf("qserv: AddWorker: worker %q already exists", name)
	}

	w, err := cl.startWorker(name)
	if err != nil {
		return fmt.Errorf("qserv: AddWorker %s: %w", name, err)
	}
	// Reachable by name, exporting nothing: the catalog and the replicated
	// tables arrive before the worker can receive a chunk query, whose
	// joins against dimension tables must find them.
	ep := xrd.NewLocalEndpoint(name, w)
	cl.Redirector.Register(ep)
	if err := cl.prepareWorker(name, cl.specs, cl.ingestedTablesLocked(false)); err != nil {
		cl.Redirector.Remove(name)
		w.Close()
		return fmt.Errorf("qserv: AddWorker %s: %w", name, err)
	}
	cl.memberMu.Lock()
	cl.workers[name] = w
	cl.Workers = append(cl.Workers, w)
	cl.join(name, ep)
	cl.memberMu.Unlock()
	cl.member.Watch(name)
	cl.member.CheckNow()
	return nil
}

// removeQuiesceTimeout bounds how long RemoveWorker waits for a drained
// worker's in-flight chunk queries to finish before closing it anyway
// (queries that lose the race fail over to the re-replicated copies).
const removeQuiesceTimeout = 30 * time.Second

// RemoveWorker gracefully decommissions a worker: every chunk it holds
// is first re-replicated onto other live workers (verified copies,
// placement re-homed chunk by chunk, so the replication factor never
// drops), then the worker is detached from the fabric, drained of its
// in-flight chunk queries, and closed. It fails — leaving the worker
// serving — when removal would leave fewer workers than the
// replication factor or a chunk cannot be moved. Removals serialize:
// concurrent calls are safe, and the floor check holds for each.
func (cl *Cluster) RemoveWorker(name string) error {
	if len(cl.Config.WorkerAddrs) > 0 {
		return ErrRemoteCluster
	}
	cl.removalMu.Lock()
	defer cl.removalMu.Unlock()

	// Mark the worker as leaving under the same lock that guards
	// placement decisions: from here on ingest never homes a new chunk
	// on it and repair never picks it as a copy target, so the drain
	// below converges (removals serialize via removalMu, so the floor
	// check cannot race another removal's mutation).
	cl.memberMu.Lock()
	w := cl.workers[name]
	remaining := len(cl.names) - 1
	if w != nil {
		if remaining < cl.Config.Replication {
			cl.memberMu.Unlock()
			return fmt.Errorf("qserv: RemoveWorker %s: %d workers would remain, below replication %d",
				name, remaining, cl.Config.Replication)
		}
		cl.removing[name] = true
	}
	cl.memberMu.Unlock()
	if w == nil {
		return fmt.Errorf("qserv: RemoveWorker: no worker %q", name)
	}
	unmark := func() {
		cl.memberMu.Lock()
		delete(cl.removing, name)
		cl.memberMu.Unlock()
	}

	// Graceful drain: the worker keeps serving its chunks while each
	// is copied off and re-homed. Drain serializes with repair
	// sweeps, so any chunk a pre-mark sweep placed here is seen and
	// moved too; the post-drain check guards the invariant that a
	// detached worker never lingers in placement.
	if err := cl.member.Drain(context.Background(), name); err != nil {
		unmark()
		return fmt.Errorf("qserv: RemoveWorker %s: %w", name, err)
	}
	if n := len(cl.Placement.ChunksOn(name)); n > 0 {
		unmark()
		return fmt.Errorf("qserv: RemoveWorker %s: still placed on %d chunks after drain", name, n)
	}
	cl.member.Unwatch(name)
	// No chunk export points at the worker anymore; wait for the chunk
	// queries it already accepted to finish so their result reads are
	// served rather than torn.
	deadline := time.Now().Add(removeQuiesceTimeout)
	for time.Now().Before(deadline) && !cl.quiesced(name) {
		time.Sleep(2 * time.Millisecond)
	}
	cl.Redirector.Remove(name)
	cl.memberMu.Lock()
	delete(cl.workers, name)
	delete(cl.endpoints, name)
	delete(cl.removing, name)
	cl.names = slices.DeleteFunc(cl.names, func(n string) bool { return n == name })
	cl.Workers = slices.DeleteFunc(cl.Workers, func(ww *worker.Worker) bool { return ww == w })
	cl.memberMu.Unlock()
	w.Close()
	return nil
}

// quiesced reports whether a worker's /ping shows no chunk query executing
// or queued. A worker that does not answer has nothing left to wait for.
func (cl *Cluster) quiesced(name string) bool {
	ctx, done := context.WithTimeout(context.Background(), time.Second)
	defer done()
	var st xrd.PingStatus
	data, err := cl.client.ReadFrom(ctx, name, xrd.PingPath)
	if err != nil || json.Unmarshal(data, &st) != nil {
		return true
	}
	return st.Active == 0 && st.Queued == 0
}

// WorkerNames returns the current membership, in join order. Safe under
// concurrent AddWorker / RemoveWorker.
func (cl *Cluster) WorkerNames() []string {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	return append([]string(nil), cl.names...)
}

// eligibleWorkerNames is WorkerNames minus workers being removed — the
// set new chunk placements and repair copies may target.
func (cl *Cluster) eligibleWorkerNames() []string {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	out := make([]string, 0, len(cl.names))
	for _, name := range cl.names {
		if !cl.removing[name] {
			out = append(out, name)
		}
	}
	return out
}

// deadWorker reports whether the failure detector currently considers
// the worker dead.
func (cl *Cluster) deadWorker(name string) bool { return cl.member.Dead(name) }

// partitionedTables names the ingested partitioned tables — what a
// chunk repair must copy.
func (cl *Cluster) partitionedTables() []string {
	return cl.ingestedTables(true)
}

func (cl *Cluster) ingestedTables(partitioned bool) []string {
	cl.ingestMu.Lock()
	defer cl.ingestMu.Unlock()
	return cl.ingestedTablesLocked(partitioned)
}

// ingestedTablesLocked is ingestedTables for callers already holding
// ingestMu (AddWorker holds it across its whole join).
func (cl *Cluster) ingestedTablesLocked(partitioned bool) []string {
	var out []string
	for _, name := range cl.Registry.TableNames() {
		info, err := cl.Registry.Table(name)
		if err != nil || info.Partitioned != partitioned {
			continue
		}
		if cl.ingested[strings.ToLower(info.Name)] {
			out = append(out, info.Name)
		}
	}
	return out
}

// rehome moves a chunk's fabric export after the replication manager
// verified a copy and updated placement: the new holder is registered
// before the old one is deregistered, so the chunk never loses its
// last live export mid-repair.
func (cl *Cluster) rehome(chunk partition.ChunkID, from, to string) {
	cl.memberMu.Lock()
	epTo := cl.endpoints[to]
	cl.memberMu.Unlock()
	if to != "" && epTo != nil {
		cl.Redirector.Register(epTo, xrd.QueryPath(int(chunk)))
	}
	if from != "" {
		cl.Redirector.Deregister(from, xrd.QueryPath(int(chunk)))
	}
}

// prepareRepairTarget is the replication manager's Prepare hook.
func (cl *Cluster) prepareRepairTarget(name string) error {
	cl.ingestMu.Lock()
	specs, replicated := cl.specs, cl.ingestedTablesLocked(false)
	cl.ingestMu.Unlock()
	return cl.prepareWorker(name, specs, replicated)
}

// prepareWorker makes a worker ready to hold the catalog's chunks: it
// writes every catalog spec CreateTables installed (ApplySpec is
// idempotent) and, to a worker that holds no chunk — one joining, or one
// that came back empty — copies every ingested replicated table. Such a
// worker needs both before its first chunk: a /repl install looks its table
// up in the worker's registry, which a restarted remote worker has yet to be
// told about, and chunk queries join against the replicated tables.
func (cl *Cluster) prepareWorker(name string, specs [][]byte, replicated []string) error {
	for _, spec := range specs {
		ctx, done := context.WithTimeout(context.Background(), fabricTimeout)
		err := cl.client.WriteTo(ctx, name, xrd.LoadSpecPath, spec)
		done()
		if err != nil {
			return fmt.Errorf("qserv: catalog spec to worker %s: %w", name, err)
		}
	}
	inv, err := cl.inventory(name)
	if err != nil || len(inv.Chunks) > 0 {
		return err
	}
	for _, table := range replicated {
		if err := cl.seedReplicated(name, table); err != nil {
			return err
		}
	}
	return nil
}

// seedReplicated copies one replicated table onto a worker from the first
// live peer the verified copy succeeds from.
func (cl *Cluster) seedReplicated(target, table string) error {
	err := fmt.Errorf("no live peer")
	for _, src := range cl.WorkerNames() {
		if src == target || cl.deadWorker(src) {
			continue
		}
		ctx, done := context.WithTimeout(context.Background(), fabricTimeout)
		_, err = member.CopyVerified(ctx, cl.client, src, target, xrd.ReplSharedPath(table))
		done()
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("qserv: seed replicated table %s on worker %s: %w", table, target, err)
}

// RestartWorker simulates a worker process crash and restart under the
// same identity: every in-flight transaction is severed (exactly as an
// abrupt process death tears its connections), the worker is closed,
// and a fresh worker is started in its place behind the same fabric
// endpoint — placement and exports are untouched, because the cluster
// still expects this worker to hold its chunks. With a DataDir the new
// worker recovers its chunk tables from the durable store before
// serving, so it rejoins with data intact and repair has nothing to
// copy; without one it comes back hollow and the replication manager
// heals its chunks in place from surviving replicas.
func (cl *Cluster) RestartWorker(name string) error {
	if len(cl.Config.WorkerAddrs) > 0 {
		return ErrRemoteCluster
	}
	cl.memberMu.Lock()
	old := cl.workers[name]
	ep, _ := cl.endpoints[name].(*xrd.LocalEndpoint)
	leaving := cl.removing[name]
	cl.memberMu.Unlock()
	if old == nil || ep == nil {
		return fmt.Errorf("qserv: RestartWorker: no worker %q", name)
	}
	if leaving {
		return fmt.Errorf("qserv: RestartWorker %s: worker is being removed", name)
	}
	// Crash: sever in-flight transactions, then stop the old process
	// (its store is released so the successor can reopen it).
	ep.SetDown(true)
	old.Close()
	nw, err := cl.startWorker(name)
	if err != nil {
		return fmt.Errorf("qserv: RestartWorker %s: %w", name, err)
	}
	cl.memberMu.Lock()
	if cl.workers[name] != old {
		cl.memberMu.Unlock()
		nw.Close()
		return fmt.Errorf("qserv: RestartWorker %s: membership changed during restart", name)
	}
	cl.workers[name] = nw
	for i, w := range cl.Workers {
		if w == old {
			cl.Workers[i] = nw
		}
	}
	cl.memberMu.Unlock()
	// Revive the endpoint only once the new worker is ready to serve;
	// the failure detector's next successful ping transitions it back to
	// alive, which kicks an immediate placement-vs-inventory audit.
	ep.SetHandler(nw)
	ep.SetDown(false)
	cl.member.CheckNow()
	return nil
}
