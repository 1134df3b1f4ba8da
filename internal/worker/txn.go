package worker

import (
	"crypto/md5"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlparse"
)

// A dispatch write is a transaction: the chunk queries of one user query for
// every chunk the czar sends this worker (core.Dispatch), its statements
// written once, for the first listed chunk and that chunk's first subchunk
// (section 5.3: a near-neighbour job is the subchunk against itself, then
// against its overlap). The worker parses them once per transaction and cuts
// them at every FROM entry that is the naming codec's (internal/meta) name,
// spelled as the codec spells it, of a piece of that first chunk (and first
// subchunk): a hole. Each listed chunk is a job of its own, which binds its
// chunk and its own first subchunk into the holes and reads every other FROM
// entry as it is written — so a literal, a column or an alias that reads
// like a table name is never rewritten. A headerless payload, or one with a
// SUBCHUNKS line, is a transaction of one: the path's chunk, addressed by
// the payload's own hash, whose binding changes nothing.
type txn struct {
	sum   [md5.Size]byte     // of the payload: a re-delivered write's is its own
	text  string             // the statements
	first core.DispatchChunk // the chunk the statements are written for

	// jobs are the listed chunks' jobs in list order (but the ones a cancel
	// got to first, which are never registered); next is the first not yet
	// admitted to a lane and out counts the admitted ones not yet released.
	// Guarded by Worker.mu.
	jobs      []*job
	next, out int

	parse sync.Once
	sels  []*sqlparse.Select
	ents  [][]fromEntry // per statement, per FROM entry, as the text names it
	err   error

	// spare and free are bound statement sets no job is using: a Prepared
	// runs on one goroutine at a time, so jobs of the transaction that run
	// at once each compile a copy from the one parse, and a job that starts
	// after another finished takes that one's.
	mu    sync.Mutex
	spare []jobStmt
	free  [][]jobStmt
}

// txnWindow bounds the jobs of a transaction outstanding at the worker —
// queued, running, or finished with a result nobody has read: reading one
// admits the next in list order. A query whose reader stalls thus holds at
// most this many of its results per worker. It is above the default Slots,
// so one transaction alone keeps the scan lanes busy.
const txnWindow = 16

// fromEntry is a FROM entry of a transaction's statement: the name it reads,
// the piece of a catalog table the codec reads that name as (resolved), and
// whether it is a hole that each job names its own chunk's piece in.
type fromEntry struct {
	name     string
	ref      meta.TableRef
	resolved bool
	hole     bool
}

// parseText parses the transaction's statements and cuts their holes.
func (t *txn) parseText(reg *meta.Registry) {
	stmts, err := sqlparse.ParseScript(t.text)
	if err != nil {
		t.err = fmt.Errorf("parse chunk query: %w", err)
		return
	}
	s0 := firstSub(t.first.SubChunks)
	t.sels, t.ents = make([]*sqlparse.Select, 0, len(stmts)), make([][]fromEntry, 0, len(stmts))
	for _, st := range stmts {
		sel := st.(*sqlparse.Select)
		ents := make([]fromEntry, len(sel.From))
		for i, from := range sel.From {
			e := fromEntry{name: from.Table}
			e.ref, e.resolved = reg.ResolveTable(from.Table)
			e.hole = e.resolved && e.ref.Kind != meta.SharedTable && e.ref.Chunk == t.first.Chunk &&
				(!e.ref.Kind.Subchunk() || e.ref.Sub == s0) && e.ref.Spells(from.Table)
			ents[i] = e
		}
		t.sels, t.ents = append(t.sels, sel), append(t.ents, ents)
	}
}

// statements hands job j the transaction's statements bound to its chunk and
// first subchunk, and whether j is the job that parsed them.
func (t *txn) statements(reg *meta.Registry, j *job) ([]jobStmt, bool, error) {
	parsed := false
	t.parse.Do(func() { parsed = true; t.parseText(reg) })
	if t.err != nil {
		return nil, parsed, t.err
	}
	t.mu.Lock()
	stmts := t.spare
	if n := len(t.free); n > 0 {
		stmts, t.free = t.free[n-1], t.free[:n-1]
	} else {
		t.spare = nil
	}
	t.mu.Unlock()
	sub := firstSub(j.subs)
	same := j.chunk == t.first.Chunk && sub == firstSub(t.first.SubChunks) // the names as written
	if stmts == nil {
		stmts = make([]jobStmt, len(t.sels))
		for i, sel := range t.sels {
			stmts[i] = jobStmt{sel: sel, ents: slices.Clone(t.ents[i])}
		}
		if same {
			return stmts, parsed, nil
		}
	}
	for i := range stmts {
		for k, e := range t.ents[i] {
			if e.hole && !same {
				e.ref.Chunk, e.ref.Sub = j.chunk, sub
				e.name = e.ref.Name()
			}
			stmts[i].ents[k] = e
		}
	}
	return stmts, parsed, nil
}

// done files a job's statement set for the transaction's next job.
func (t *txn) done(stmts []jobStmt) {
	for i := range stmts {
		clear(stmts[i].tables) // the job's, which the set must not keep alive
	}
	t.mu.Lock()
	if t.spare == nil {
		t.spare = stmts
	} else {
		t.free = append(t.free, stmts)
	}
	t.mu.Unlock()
}

// firstSub is a subchunk list's first, -1 for none.
func firstSub(subs []partition.SubChunkID) partition.SubChunkID {
	if len(subs) == 0 {
		return -1
	}
	return subs[0]
}
