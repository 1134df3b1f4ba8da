package czar

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
)

// mergeSession accumulates one user query's chunk results — the streaming
// replacement for the paper's serialized load-then-copy collection step
// (section 7.6). Dispatch goroutines absorb result streams concurrently
// (no engine involved), so merging overlaps with in-flight chunk fetches
// and scales with the czar's MergeParallelism. What absorbing a stream
// means depends on the plan:
//
//   - append: a pass-through plan's rows are not opened. The stream is
//     walked by a sink that checks it and keeps nothing (dump's
//     Stream.Encoded), and its rows join the session as one encoded batch —
//     the bytes the worker wrote are the bytes the client will read, with no
//     cell converted to what its column declares (for an item no statement
//     could type that is a guess);
//   - topK: for plans with ORDER BY + LIMIT pushed down, the rows are
//     decoded boxed and each of several stripes, guarded by its own mutex,
//     keeps only its best K via a streaming sorted merge, so the session
//     never holds more than stripes x K rows;
//   - aggregate: partial-aggregate rows are decoded boxed and combine
//     incrementally by group key (COUNT/SUM partials add, MIN/MAX fold)
//     instead of materializing every partial row before the merge query
//     runs.
//
// finish() then hands over the batches, or combines the stripes (k-way
// merge / group-map union) into rows, with the schema of the table that
// the merge statement reads them from — or, for a plan whose merge
// statement is the identity, that types the answer as it stands.
type mergeSession struct {
	plan *core.Plan
	// stripes fold boxed rows; an append plan has none.
	stripes []*mergeStripe
	next    atomic.Int64

	mu      sync.Mutex
	schema  sqlengine.Schema // set by the first arriving chunk result
	batches []rowcodec.Batch // append plans: every chunk's rows, in arrival order
	// kinds joins, per column, the kinds of cell the absorbed batches hold:
	// what types the append plans' result table.
	kinds []rowcodec.Kinds
}

// mergeStripe is one independently locked shard of the session state.
type mergeStripe struct {
	mu sync.Mutex
	f  partialFolder
}

// partialFolder folds batches of decoded partial rows; rows() yields
// the folded state. Implementations are not goroutine-safe — the
// owning stripe's mutex serializes access.
type partialFolder interface {
	fold(rows []sqlengine.Row)
	rows() []sqlengine.Row
}

// newMergeSession picks the fold the plan calls for and, for the two that
// fold boxed rows, sizes the stripe set.
func newMergeSession(plan *core.Plan, stripes int) *mergeSession {
	s := &mergeSession{plan: plan}
	var folder func() partialFolder
	switch {
	case plan.TopK && len(plan.TopKKeys) > 0:
		folder = func() partialFolder { return &topKFolder{keys: plan.TopKKeys, k: plan.TopKLimit} }
	case plan.PartialOps != nil:
		folder = func() partialFolder { return newAggFolder(plan.PartialOps) }
	default:
		return s
	}
	for i := 0; i < max(stripes, 1); i++ {
		s.stripes = append(s.stripes, &mergeStripe{f: folder()})
	}
	return s
}

// absorb takes in one chunk's result stream and reports how many rows it
// held. For an append plan it also returns them, encoded: the batch the
// session keeps and a streamable plan's row feed forwards. It is safe to
// call from many dispatch goroutines at once.
func (s *mergeSession) absorb(data []byte) (rowcodec.Batch, int, error) {
	st, err := dump.Open(data)
	if err != nil {
		return rowcodec.Batch{}, 0, err
	}
	if s.stripes == nil {
		b, kinds, err := st.Encoded()
		if err != nil {
			return rowcodec.Batch{}, 0, err
		}
		if err := s.admit(st.Schema, b, kinds); err != nil {
			return rowcodec.Batch{}, 0, err
		}
		return b, b.Len(), nil
	}
	rows, err := st.Rows()
	if err != nil {
		return rowcodec.Batch{}, 0, err
	}
	if err := s.admit(st.Schema, rowcodec.Batch{}, nil); err != nil {
		return rowcodec.Batch{}, 0, err
	}
	if len(rows) > 0 {
		stripe := s.stripes[int(s.next.Add(1)-1)%len(s.stripes)]
		stripe.mu.Lock()
		stripe.f.fold(rows)
		stripe.mu.Unlock()
	}
	return rowcodec.Batch{}, len(rows), nil
}

// admit validates the stream's schema against the session — the first
// arrival fixes it, later arrivals must agree in arity (chunk results
// all come from the same worker statement template) — and, for an append
// plan, takes the stream's batch in.
func (s *mergeSession) admit(schema sqlengine.Schema, b rowcodec.Batch, kinds []rowcodec.Kinds) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.schema == nil {
		if len(s.plan.ResultColumns) > 0 && len(schema) != len(s.plan.ResultColumns) {
			return fmt.Errorf("result arity %d does not match plan arity %d",
				len(schema), len(s.plan.ResultColumns))
		}
		s.schema = schema
		s.kinds = make([]rowcodec.Kinds, len(schema))
	}
	if len(schema) != len(s.schema) {
		return fmt.Errorf("result arity mismatch: %d vs %d", len(schema), len(s.schema))
	}
	if b.Len() > 0 {
		s.batches = append(s.batches, b)
	}
	for i, k := range kinds {
		s.kinds[i] |= k
	}
	return nil
}

// finish returns the session's folded state — an append plan's batches,
// the other plans' rows, the stripes combined — with the schema of the
// result table they make. Column names are the first arriving chunk
// result's; column types are fitted to the values, because what a chunk
// result declares for a column no compiled statement could type is a guess
// from its own rows — DOUBLE when it had none — and a typed table converts
// what it is given: BIGINT if every value is an integer, DOUBLE if every
// one is a number, VARCHAR if any is a string, and the declared type for a
// column with no value (sqlengine.FitSchema's rule, read from the joined
// cell kinds of the batches where the rows stayed encoded). With no chunk
// results at all the schema is the plan's, so zero-chunk string/int queries
// still merge correctly.
func (s *mergeSession) finish() (sqlengine.Schema, []rowcodec.Batch, []sqlengine.Row) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.schema == nil {
		schema := make(sqlengine.Schema, len(s.plan.ResultColumns))
		for i, col := range s.plan.ResultColumns {
			schema[i] = sqlengine.Column{Name: col, Type: s.plan.ResultType(i)}
		}
		return schema, nil, nil
	}
	if s.stripes == nil {
		schema := slices.Clone(s.schema)
		for i, k := range s.kinds {
			if typ, ok := k.ColType(); ok {
				schema[i].Type = typ
			}
		}
		return schema, s.batches, nil
	}

	folders := make([]partialFolder, len(s.stripes))
	for i, st := range s.stripes {
		st.mu.Lock()
		folders[i] = st.f
		st.mu.Unlock()
	}
	// Cross-stripe combination reuses the fold operation itself: fold
	// every other stripe's state into the first (for top-K that is the
	// final leg of the k-way merge; for aggregates, the group-map
	// union).
	first := folders[0]
	for _, f := range folders[1:] {
		first.fold(f.rows())
	}
	rows := first.rows()
	return sqlengine.FitSchema(s.schema, rows), nil, rows
}

// ---------- top-K ----------

// topKFolder keeps the best k rows under the plan's merge ordering.
// Incoming batches are sorted (workers ship them ordered already for
// single-statement chunk queries; multi-statement results are
// concatenations of sorted runs) and then merged with the accumulated
// sorted run, truncating at k — a streaming k-way merge two runs at a
// time.
type topKFolder struct {
	keys []core.TopKKey
	k    int64
	acc  []sqlengine.Row
}

func (f *topKFolder) less(a, b sqlengine.Row) bool {
	for _, key := range f.keys {
		c := sqlengine.CompareNullsFirst(a[key.Col], b[key.Col])
		if c == 0 {
			continue
		}
		if key.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func (f *topKFolder) fold(rows []sqlengine.Row) {
	batch := append([]sqlengine.Row(nil), rows...)
	sort.SliceStable(batch, func(i, j int) bool { return f.less(batch[i], batch[j]) })
	f.acc = f.mergeTrunc(f.acc, batch)
}

// mergeTrunc merges two sorted runs, keeping at most k rows. Ties
// prefer run a (the earlier-arrived rows), mirroring the engine's
// stable sort.
func (f *topKFolder) mergeTrunc(a, b []sqlengine.Row) []sqlengine.Row {
	limit := int(f.k)
	out := make([]sqlengine.Row, 0, min(limit, len(a)+len(b)))
	i, j := 0, 0
	for len(out) < limit && (i < len(a) || j < len(b)) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case f.less(b[j], a[i]):
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
		}
	}
	return out
}

func (f *topKFolder) rows() []sqlengine.Row { return f.acc }

// ---------- incremental aggregate combine ----------

// aggFolder combines partial-aggregate rows by group key as they
// arrive. The merge SQL's re-aggregation (SUM over partial counts and
// sums, MIN/MAX over partial extrema) is associative, so folding
// chunk partials pairwise leaves the final answer unchanged while the
// session table holds one row per group instead of chunks x groups.
type aggFolder struct {
	ops    []core.PartialOp
	keyIdx []int
	groups map[string]sqlengine.Row
	order  []string // first-seen group order, for deterministic output
}

func newAggFolder(ops []core.PartialOp) *aggFolder {
	f := &aggFolder{ops: ops, groups: map[string]sqlengine.Row{}}
	for i, op := range ops {
		if op == core.PartialKey {
			f.keyIdx = append(f.keyIdx, i)
		}
	}
	return f
}

func (f *aggFolder) fold(rows []sqlengine.Row) {
	keyVals := make([]sqlengine.Value, len(f.keyIdx))
	for _, r := range rows {
		if len(r) != len(f.ops) {
			continue // admit() already rejected mismatched streams
		}
		for i, ki := range f.keyIdx {
			keyVals[i] = r[ki]
		}
		key := sqlengine.GroupKey(keyVals)
		acc, ok := f.groups[key]
		if !ok {
			f.groups[key] = append(sqlengine.Row(nil), r...)
			f.order = append(f.order, key)
			continue
		}
		for i, op := range f.ops {
			acc[i] = combinePartial(op, acc[i], r[i])
		}
	}
}

func (f *aggFolder) rows() []sqlengine.Row {
	out := make([]sqlengine.Row, 0, len(f.order))
	for _, key := range f.order {
		out = append(out, f.groups[key])
	}
	return out
}

// combinePartial folds one partial-aggregate cell into the
// accumulator, mirroring the merge aggregates' NULL handling: SQL
// aggregates skip NULLs, so NULL combines as the identity.
func combinePartial(op core.PartialOp, acc, v sqlengine.Value) sqlengine.Value {
	switch op {
	case core.PartialSum:
		return addPartial(acc, v)
	case core.PartialMin:
		return extremum(acc, v, -1)
	case core.PartialMax:
		return extremum(acc, v, +1)
	default: // PartialKey: identical within a group by construction
		return acc
	}
}

// addPartial adds two partial sums, preserving the engine's SUM typing
// (all-int input stays int64, anything else is float64).
func addPartial(a, b sqlengine.Value) sqlengine.Value {
	if sqlengine.IsNull(a) {
		return b
	}
	if sqlengine.IsNull(b) {
		return a
	}
	ai, aok := a.(int64)
	bi, bok := b.(int64)
	if aok && bok {
		return ai + bi
	}
	af, aerr := sqlengine.AsFloat(a)
	bf, berr := sqlengine.AsFloat(b)
	if aerr != nil || berr != nil {
		return a
	}
	return af + bf
}

// extremum keeps the smaller (dir < 0) or larger (dir > 0) of two
// partial extrema; NULL is the identity.
func extremum(a, b sqlengine.Value, dir int) sqlengine.Value {
	if sqlengine.IsNull(a) {
		return b
	}
	if sqlengine.IsNull(b) {
		return a
	}
	c, err := sqlengine.Compare(a, b)
	if err != nil {
		return a
	}
	if (dir < 0 && c <= 0) || (dir > 0 && c >= 0) {
		return a
	}
	return b
}
