package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// joinKeyValues are what the join columns hold: NULLs, integers and the
// floats equal to them, both zeros, a NaN, and values around 2^53, where
// an integer and its float64 stop being the same number.
var joinKeyValues = map[sqlparse.ColType][]Value{
	sqlparse.TypeInt: {nil, int64(0), int64(1), int64(2), int64(-3), int64(1 << 53), int64(1<<53 + 1),
		int64(1<<53 + 2), int64(math.MaxInt64)},
	sqlparse.TypeFloat: {nil, 0.0, math.Copysign(0, -1), 1.0, 2.0, 2.5, -3.0, float64(1 << 53), float64(1<<53 + 2),
		math.NaN(), math.Inf(1)},
	sqlparse.TypeString: {nil, "", "0", "1", "2", "2.0", "-3", "abc", "ABC", "9007199254740993"},
}

// TestHashJoinSameAnswersAsNestedLoop holds the join planner to itself,
// with no oracle: a hash join only changes how the pairs of an equi-join
// are found, so `a.k = b.k` must select the pairs `IFNULL(a.k, a.k) =
// IFNULL(b.k, b.k)` does — the same comparison with no bare column on
// either side, which the planner can only answer by nested loop. Seeded
// random two- and three-table joins over every pairing of key types.
func TestHashJoinSameAnswersAsNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	types := []sqlparse.ColType{sqlparse.TypeInt, sqlparse.TypeFloat, sqlparse.TypeString}
	for round := 0; round < 300; round++ {
		e := New("db")
		db, _ := e.Database("db")
		// Three tables of (id, k, j): k and j are the join columns.
		var kinds [3][2]sqlparse.ColType
		for ti, name := range []string{"a", "b", "c"} {
			kinds[ti] = [2]sqlparse.ColType{types[r.Intn(3)], types[r.Intn(3)]}
			tbl := NewTable(name, Schema{{Name: "id", Type: sqlparse.TypeInt},
				{Name: "k", Type: kinds[ti][0]}, {Name: "j", Type: kinds[ti][1]}})
			for i := 0; i < 4+r.Intn(12); i++ {
				k, j := joinKeyValues[kinds[ti][0]], joinKeyValues[kinds[ti][1]]
				if err := tbl.Insert(Row{int64(i), k[r.Intn(len(k))], j[r.Intn(len(j))]}); err != nil {
					t.Fatal(err)
				}
			}
			db.Put(tbl)
		}
		col := func() string { return []string{"k", "j"}[r.Intn(2)] }
		eq := func(l, r string, hash bool) string {
			if hash {
				return l + " = " + r
			}
			return fmt.Sprintf("IFNULL(%s, %s) = IFNULL(%s, %s)", l, l, r, r)
		}
		from, conds := "a, b", [][2]string{{"a." + col(), "b." + col()}}
		if round%2 == 1 {
			from = "a, b, c"
			conds = append(conds, [2]string{[]string{"a.", "b."}[r.Intn(2)] + col(), "c." + col()})
		}
		answers := map[bool][]string{}
		for _, hash := range []bool{true, false} {
			var where []string
			for _, c := range conds {
				where = append(where, eq(c[0], c[1], hash))
			}
			sql := "SELECT * FROM " + from + " WHERE " + strings.Join(where, " AND ")
			res, err := e.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for _, row := range res.Rows {
				answers[hash] = append(answers[hash], fmt.Sprintf("%#v", row))
			}
			slices.Sort(answers[hash])
		}
		if !slices.Equal(answers[true], answers[false]) {
			t.Errorf("round %d, key types %v, conditions %v: %d pairs by hash join, %d by nested loop",
				round, kinds, conds, len(answers[true]), len(answers[false]))
		}
	}
}

// TestHashJoinMixedNumericKeys is the statement the bug was reported
// with: a DOUBLE 2.0 joined to a BIGINT 2 by hash join found nothing.
func TestHashJoinMixedNumericKeys(t *testing.T) {
	e := New("db")
	mustExec(t, e, "CREATE TABLE t (i BIGINT); CREATE TABLE u (g DOUBLE)")
	mustExec(t, e, "INSERT INTO t VALUES (2); INSERT INTO u VALUES (2.0)")
	for _, where := range []string{"u.g = t.i", "t.i = u.g", "u.g + 0 = t.i"} {
		if n := mustQuery(t, e, "SELECT COUNT(*) FROM t, u WHERE "+where).Rows[0][0]; n != int64(1) {
			t.Errorf("WHERE %s: %v pairs, want 1", where, n)
		}
	}
}
