package member

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// scriptPinger fails probes for the named workers.
type scriptPinger struct {
	mu   sync.Mutex
	fail map[string]bool
}

func (p *scriptPinger) setFail(name string, fail bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail == nil {
		p.fail = map[string]bool{}
	}
	p.fail[name] = fail
}

func (p *scriptPinger) Ping(_ context.Context, worker string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail[worker] {
		return fmt.Errorf("scripted failure for %s", worker)
	}
	return nil
}

func TestDetectorTransitions(t *testing.T) {
	p := &scriptPinger{}
	d := NewDetector(DetectorConfig{DeadAfter: 3}, p)
	d.Watch("a", "b")

	var mu sync.Mutex
	var seen []string
	d.OnTransition(func(w string, from, to State) {
		mu.Lock()
		seen = append(seen, fmt.Sprintf("%s:%v->%v", w, from, to))
		mu.Unlock()
	})

	ctx := context.Background()
	d.Probe(ctx)
	if st, _ := d.State("a"); st != StateAlive {
		t.Fatalf("a after clean probe = %v", st)
	}

	p.setFail("a", true)
	d.Probe(ctx) // miss 1 -> suspect
	if st, _ := d.State("a"); st != StateSuspect {
		t.Fatalf("a after 1 miss = %v", st)
	}
	if d.Dead("a") {
		t.Fatal("suspect must not read as dead")
	}
	d.Probe(ctx) // miss 2 -> still suspect
	d.Probe(ctx) // miss 3 -> dead
	if !d.Dead("a") {
		t.Fatal("a should be dead after 3 misses")
	}
	if d.Dead("b") {
		t.Fatal("b never missed")
	}
	snap := d.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[0].Misses != 3 || snap[0].LastErr == "" {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Quarantine expiry: the dead worker keeps being probed; the first
	// success revives it.
	p.setFail("a", false)
	d.Probe(ctx)
	if d.Dead("a") {
		t.Fatal("a should be probed back in")
	}
	if st, _ := d.State("a"); st != StateAlive {
		t.Fatalf("revived state = %v", st)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{"a:alive->suspect", "a:suspect->dead", "a:dead->alive"}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, seen[i], want[i])
		}
	}
}

func TestDetectorUnwatch(t *testing.T) {
	p := &scriptPinger{}
	d := NewDetector(DetectorConfig{DeadAfter: 1}, p)
	d.Watch("a")
	p.setFail("a", true)
	d.Probe(context.Background())
	if !d.Dead("a") {
		t.Fatal("a should be dead")
	}
	d.Unwatch("a")
	if d.Dead("a") {
		t.Fatal("unwatched workers are not dead")
	}
	if _, ok := d.State("a"); ok {
		t.Fatal("unwatched workers have no state")
	}
}

// repairHarness wires three real workers behind an in-process fabric
// with the Object table loaded on one of them for chunk 5.
type repairHarness struct {
	reg       *meta.Registry
	red       *xrd.Redirector
	client    *xrd.Client
	placement *meta.Placement
	workers   map[string]*worker.Worker
	names     []string
	chunk     partition.ChunkID
	rows      []sqlengine.Row
}

func newRepairHarness(t *testing.T) *repairHarness {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	h := &repairHarness{
		reg:       datagen.LSSTRegistry(ch),
		red:       xrd.NewRedirector(),
		placement: meta.NewPlacement(),
		workers:   map[string]*worker.Worker{},
		chunk:     partition.ChunkID(5),
	}
	h.client = xrd.NewClient(h.red)
	for _, name := range []string{"w1", "w2", "w3"} {
		w, err := worker.New(worker.DefaultConfig(name), h.reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		h.workers[name] = w
		h.names = append(h.names, name)
		h.red.Register(xrd.NewLocalEndpoint(name, w))
	}
	// Object rows for chunk 5 (the values are arbitrary; the schema
	// arity must match, chunkId/subChunkId included).
	for i := int64(1); i <= 4; i++ {
		h.rows = append(h.rows, sqlengine.Row{
			i, 30.0 + float64(i)/10, 0.1, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28,
			2e-28, 0.05, int64(h.chunk), int64(0)})
	}
	payload, err := ingest.EncodeBatch(ingest.Batch{Rows: h.rows, Overlap: h.rows[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.workers["w1"].HandleWrite(xrd.LoadPath("Object", int(h.chunk)), payload); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *repairHarness) repairer(t *testing.T, det *Detector, rehomed *[]string) *Repairer {
	t.Helper()
	return NewRepairer(RepairConfig{
		Factor: 2,
		Tables: func() []string { return []string{"Object"} },
		Candidates: func() []string {
			return append([]string(nil), h.names...)
		},
		Rehome: func(c partition.ChunkID, from, to string) {
			*rehomed = append(*rehomed, fmt.Sprintf("%d:%s->%s", c, from, to))
		},
	}, h.client, h.placement, det)
}

func TestRepairReplacesDeadReplica(t *testing.T) {
	h := newRepairHarness(t)
	p := &scriptPinger{}
	det := NewDetector(DetectorConfig{DeadAfter: 1}, p)
	det.Watch("w1", "w2", "w3", "ghost")
	p.setFail("ghost", true)
	det.Probe(context.Background())

	// Chunk 5 is placed on w1 (live, holds the data) and ghost (dead).
	h.placement.Assign(h.chunk, "w1", "ghost")
	epoch0 := h.placement.Epoch()

	var rehomed []string
	r := h.repairer(t, det, &rehomed)
	r.Sweep()

	ws := h.placement.Workers(h.chunk)
	if len(ws) != 2 || ws[0] != "w1" {
		t.Fatalf("placement after repair = %v", ws)
	}
	target := ws[1]
	if target == "ghost" || target == "w1" {
		t.Fatalf("dead replica not replaced: %v", ws)
	}
	if h.placement.Epoch() <= epoch0 {
		t.Fatal("placement epoch did not advance")
	}
	if len(rehomed) != 1 || rehomed[0] != fmt.Sprintf("5:ghost->%s", target) {
		t.Fatalf("rehome calls = %v", rehomed)
	}

	// The target's copy must be byte-identical to the source's export
	// (rows, overlap companion, and a rebuilt director-key index).
	src, err := h.client.ReadFrom(context.Background(), "w1", xrd.ReplPath("Object", int(h.chunk)))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := h.client.ReadFrom(context.Background(), target, xrd.ReplPath("Object", int(h.chunk)))
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != string(dst) {
		t.Fatal("target export differs from source")
	}
	db, err := h.workers[target].Engine().Database(h.reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table(meta.ChunkTableName("Object", h.chunk))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != len(h.rows) || !tbl.HasIndex("objectId") {
		t.Fatalf("target chunk table: %d rows, indexed=%v", tbl.Len(), tbl.HasIndex("objectId"))
	}

	prog := r.Progress()
	if prog.ChunksRepaired != 1 || prog.TablesCopied != 1 || prog.BytesCopied == 0 || prog.ChunksPending != 0 {
		t.Fatalf("progress = %+v", prog)
	}

	// A second sweep finds nothing to do.
	r.Sweep()
	if got := r.Progress().ChunksRepaired; got != 1 {
		t.Fatalf("idempotent sweep repaired again: %d", got)
	}
}

func TestRepairNoSurvivingReplica(t *testing.T) {
	h := newRepairHarness(t)
	p := &scriptPinger{}
	det := NewDetector(DetectorConfig{DeadAfter: 1}, p)
	det.Watch("ghost")
	p.setFail("ghost", true)
	det.Probe(context.Background())

	h.placement.Assign(partition.ChunkID(9), "ghost")
	var rehomed []string
	r := h.repairer(t, det, &rehomed)
	r.Sweep()
	prog := r.Progress()
	if prog.ChunksPending != 1 || prog.LastError == "" {
		t.Fatalf("unrepairable chunk not reported: %+v", prog)
	}
	if got := h.placement.Workers(partition.ChunkID(9)); len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("placement mutated without a copy: %v", got)
	}
}

func TestDrainMovesChunksOff(t *testing.T) {
	h := newRepairHarness(t)
	det := NewDetector(DetectorConfig{DeadAfter: 1}, &scriptPinger{})
	det.Watch("w1", "w2", "w3")

	h.placement.Assign(h.chunk, "w1", "w2")
	// w2 needs the chunk too (it is a live replica a drain may copy from).
	data, err := h.client.ReadFrom(context.Background(), "w1", xrd.ReplPath("Object", int(h.chunk)))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.WriteTo(context.Background(), "w2", xrd.ReplPath("Object", int(h.chunk)), data); err != nil {
		t.Fatal(err)
	}

	var rehomed []string
	r := h.repairer(t, det, &rehomed)
	if err := r.Drain(context.Background(), "w1"); err != nil {
		t.Fatal(err)
	}
	ws := h.placement.Workers(h.chunk)
	if len(ws) != 2 {
		t.Fatalf("placement after drain = %v", ws)
	}
	for _, w := range ws {
		if w == "w1" {
			t.Fatalf("drained worker still placed: %v", ws)
		}
	}
	if len(h.placement.ChunksOn("w1")) != 0 {
		t.Fatal("ChunksOn(w1) not empty after drain")
	}
}
